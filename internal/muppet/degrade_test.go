package muppet

import (
	"context"
	"testing"
	"time"

	"muppet/internal/encode"
	"muppet/internal/goals"
	"muppet/internal/sat"
	"muppet/internal/target"
)

// expired returns a budget whose deadline has already passed, which makes
// every solve return Unknown deterministically — no timing races.
func expired() sat.Budget {
	return sat.Budget{Deadline: time.Now().Add(-time.Second)}
}

// contradictoryParties builds the Alg. 1 inconsistency fixture: two K8s
// goals that demand port 16000 both allowed and denied for the same pods.
func contradictoryParties(t testing.TB, f *fixture) (*Party, *Party) {
	t.Helper()
	contradictory := []goals.K8sGoal{
		{Port: 16000, Allow: false, Selector: map[string]string{"app": "db"}},
		{Port: 16000, Allow: true, Selector: map[string]string{"app": "db"}},
	}
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), contradictory)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllHoles(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return k8sParty, istioParty
}

// TestLocalConsistencyExpiredBudgetNoFabricatedBlame is the regression
// test for Unknown/Unsat conflation: the same instance that
// TestAlg1LocalConsistencyInconsistent proves unsatisfiable must, under
// an exhausted budget, come back Indeterminate with NO core and NO edits
// — an interrupted solve proves nothing to blame.
func TestLocalConsistencyExpiredBudgetNoFabricatedBlame(t *testing.T) {
	f := loadFixture(t)
	k8sParty, istioParty := contradictoryParties(t, f)

	res := oneShot.LocalConsistencyCtx(context.Background(), f.sys, k8sParty, []*Party{istioParty}, expired())
	if !res.Indeterminate {
		t.Fatalf("expired budget must be indeterminate: %+v", res)
	}
	if res.OK {
		t.Fatal("indeterminate result must not claim consistency")
	}
	if res.Feedback != nil {
		t.Fatalf("no unsat core may be fabricated from an interrupted solve: %v", res.Feedback)
	}
	if len(res.Edits) != 0 || res.Instance != nil {
		t.Fatalf("no model artifacts on an interrupted solve: %+v", res)
	}
	if res.Stop != target.StopDeadline {
		t.Fatalf("stop reason = %v, want %v", res.Stop, target.StopDeadline)
	}

	// The identical workspace without a budget still proves the real
	// verdict, with blame.
	full := oneShot.LocalConsistencyCtx(context.Background(), f.sys, k8sParty, []*Party{istioParty}, sat.Budget{})
	if full.Indeterminate || full.OK || full.Feedback == nil || len(full.Feedback.Core) != 2 {
		t.Fatalf("unbudgeted solve must still prove inconsistency with blame: %+v", full)
	}
}

// TestLocalConsistencyTinyConflictBudget drives the same guarantee
// through the conflict-cap path rather than the deadline path.
func TestLocalConsistencyTinyConflictBudget(t *testing.T) {
	f := loadFixture(t)
	k8sParty, istioParty := contradictoryParties(t, f)

	res := oneShot.LocalConsistencyCtx(context.Background(), f.sys, k8sParty, []*Party{istioParty},
		sat.Budget{MaxConflicts: 1})
	if res.Indeterminate {
		// The cap struck before the proof finished: no blame may exist.
		if res.Feedback != nil {
			t.Fatalf("fabricated core under conflict budget: %v", res.Feedback)
		}
		if res.Stop != target.StopConflicts {
			t.Fatalf("stop reason = %v, want %v", res.Stop, target.StopConflicts)
		}
	} else if res.OK {
		t.Fatal("contradictory goals can never be consistent")
	}
	// A non-indeterminate Unsat within one conflict is legal (the proof
	// was cheap); the invariant under test is only that Unknown is never
	// dressed up as Unsat.
}

func TestReconcileCtxExpiredBudgetIndeterminate(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	res := oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, expired())
	if !res.Indeterminate || res.OK || res.Feedback != nil {
		t.Fatalf("expired reconcile must be indeterminate without blame: %+v", res)
	}
	if res.Stop != target.StopDeadline {
		t.Fatalf("stop reason = %v, want %v", res.Stop, target.StopDeadline)
	}

	// The same parties reconcile when given room to work.
	full := oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if full.Indeterminate || !full.OK {
		t.Fatalf("unbudgeted reconcile must succeed: %+v", full)
	}
}

func TestReconcileCtxCancelledContext(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := oneShot.ReconcileCtx(ctx, f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if !res.Indeterminate || res.Feedback != nil {
		t.Fatalf("cancelled reconcile must be indeterminate without blame: %+v", res)
	}
	if res.Stop != target.StopCancelled {
		t.Fatalf("stop reason = %v, want %v", res.Stop, target.StopCancelled)
	}
}

func TestNegotiationIndeterminateTerminalReason(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNegotiation(f.sys, k8sParty, istioParty)
	out := n.RunCtx(context.Background(), expired())
	if out.Reconciled {
		t.Fatal("budget-starved negotiation cannot claim success")
	}
	if out.Reason != ReasonIndeterminate {
		t.Fatalf("reason = %v, want %v", out.Reason, ReasonIndeterminate)
	}
	if out.Stop != target.StopDeadline {
		t.Fatalf("stop reason = %v, want %v", out.Stop, target.StopDeadline)
	}
	if out.Feedback != nil {
		t.Fatalf("indeterminate negotiation must carry no blame: %v", out.Feedback)
	}
}

// TestNegotiationTerminalReasons pins the explicit terminal verdicts on
// the existing success and human-intervention scenarios.
func TestNegotiationTerminalReasons(t *testing.T) {
	f := loadFixture(t)

	// Fully soft, compatible goals: reconciled immediately.
	k8sSoft, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioSoft, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	if out := NewNegotiation(f.sys, k8sSoft, istioSoft).RunCtx(context.Background(), sat.Budget{}); out.Reason != ReasonReconciled {
		t.Fatalf("reason = %v (%s), want reconciled", out.Reason, out.Reason)
	}

	// Fixed offers with strict Fig. 3 goals: every party gets stuck.
	k8sFixed, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.Offer{}, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioFixed, _, err := NewIstioParty(f.sys, f.istioCfg, encode.Offer{}, f.istioFig3)
	if err != nil {
		t.Fatal(err)
	}
	out := NewNegotiation(f.sys, k8sFixed, istioFixed).RunCtx(context.Background(), sat.Budget{})
	if out.Reconciled {
		t.Fatal("fixed incompatible offers must not reconcile")
	}
	if out.Reason != ReasonAllStuck && out.Reason != ReasonExhaustedRounds {
		t.Fatalf("reason = %v (%s), want all-stuck or exhausted-rounds", out.Reason, out.Reason)
	}
	if out.Reason.String() == "" {
		t.Fatal("terminal reason must render")
	}
}

func TestConformanceCtxExpiredBudgetIndeterminate(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.Offer{}, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	out := oneShot.RunConformanceCtx(context.Background(), f.sys, k8sParty, istioParty, expired())
	if !out.Indeterminate || out.Reconciled {
		t.Fatalf("expired conformance must be indeterminate: %+v", out)
	}
	if out.FailedStep != "local-consistency" {
		t.Fatalf("budget expires at the first step, got %q", out.FailedStep)
	}
	if out.Feedback != nil {
		t.Fatalf("indeterminate conformance must carry no blame: %v", out.Feedback)
	}
}

// TestMinimizeDegradesToBestModel exercises graceful degradation through
// the muppet layer: cancelling mid-minimisation must still produce a
// valid (possibly non-minimal) completion, flagged by a stop reason.
func TestMinimizeDegradesToBestModel(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	// MaxConflicts large enough to find a first model, small enough to be
	// exhausted during the descent on at least some runs. Whether or not
	// the cap strikes, the result must be coherent: either a usable
	// instance or an honest indeterminate — never blame.
	res := oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty},
		sat.Budget{MaxConflicts: 50})
	switch {
	case res.OK:
		if res.Instance == nil {
			t.Fatal("OK result must carry an instance")
		}
	case res.Indeterminate:
		if res.Feedback != nil {
			t.Fatalf("indeterminate result with blame: %v", res.Feedback)
		}
		if res.Stop == target.StopNone {
			t.Fatal("indeterminate result must name a stop reason")
		}
	default:
		t.Fatalf("soft-soft reconcile can never be unsat: %+v", res)
	}
}
