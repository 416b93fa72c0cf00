package muppet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"muppet/internal/encode"
	"muppet/internal/sat"
	"muppet/internal/scenario"
)

// TestMinimizeCounterStaysSmall bounds the clauses minimal-edit search
// adds to a one-shot services=12 reconcile, relative to the preprocessed
// problem it minimises over. The distance counter is sized from the
// core-tightened first model (target.Minimize), a few units wide; sized
// from the plain first model, dozens to hundreds of flips from target
// over ~1,700 soft knobs, it adds about twenty times the problem and
// makes the solver re-run preprocessing mid-descent.
func TestMinimizeCounterStaysSmall(t *testing.T) {
	sc := scenario.Generate(scenario.Params{
		Services: 12, PortsPerService: 2, Flows: 12, BannedPorts: 2, Seed: 7,
	})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	k8s, _, err := NewK8sParty(sys, sc.K8sCurrent, encode.AllSoft(), sc.K8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istio, _, err := NewIstioParty(sys, sc.IstioCurrent, encode.AllSoft(), sc.IstioRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	// The one-shot reconcile pipeline (workspace.run), measured between
	// its phases.
	ws := newWorkspace(sys, []partySpec{
		{party: k8s, enforceFixed: true, includeGoals: true},
		{party: istio, enforceFixed: true, includeGoals: true},
	}, false)
	ctx := context.Background()
	if st := ws.solve(ctx, sat.Budget{}); st != sat.Sat {
		t.Fatalf("relaxed goals must reconcile, got %v", st)
	}
	ws.harden()
	s := ws.ss.Solver()
	problem := s.NumClauses()
	res := ws.minimize(ctx, sat.Budget{})
	if res.Status != sat.Sat || !res.Optimal {
		t.Fatalf("minimisation: status %v optimal %v", res.Status, res.Optimal)
	}
	added := s.NumClauses() - problem
	t.Logf("%d soft knobs, distance %d, %d solves: problem %d clauses, minimisation added %d",
		len(ws.softLits), res.Distance, res.Stats.Solves, problem, added)
	if added > 5*problem {
		t.Fatalf("minimisation added %d clauses to a %d-clause problem (%.1f×, bound 5×)",
			added, problem, float64(added)/float64(problem))
	}
	// The seed fixes the scenario and with it the search, so the counts
	// are exact: a change that moves them updates this pin and says why.
	if added != 18056 || res.Stats.Solves != 12 {
		t.Fatalf("minimisation added %d clauses in %d solves, want exactly 18056 in 12",
			added, res.Stats.Solves)
	}
}

// crossProcessChildEnv turns the test binary into one child of
// TestReconcileIsProcessIndependent: it prints its digest and returns.
const crossProcessChildEnv = "MUPPET_CROSS_PROCESS_CHILD"

const digestPrefix = "cross-process digest: "

// TestReconcileIsProcessIndependent runs the services=12 seed-42 one-shot
// reconcile in three fresh processes of this test binary and requires
// identical digests of the generated scenario, the rendered answer and
// the solver's search counters. Repeat runs inside one process can agree
// while processes differ (a map walk on the construction path is one
// cause), and that shifts every recorded number taken from the scenario.
func TestReconcileIsProcessIndependent(t *testing.T) {
	if os.Getenv(crossProcessChildEnv) != "" {
		fmt.Println(digestPrefix + reconcileDigest(t))
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 3; i++ {
		cmd := exec.Command(exe, "-test.run=^TestReconcileIsProcessIndependent$")
		cmd.Env = append(os.Environ(), crossProcessChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
		_, digest, ok := strings.Cut(string(out), digestPrefix)
		if !ok {
			t.Fatalf("child %d printed no digest:\n%s", i, out)
		}
		digest, _, _ = strings.Cut(digest, "\n")
		if i == 0 {
			first = digest
			t.Logf("child 0: %s", digest)
		} else if digest != first {
			t.Fatalf("child %d digest differs from child 0:\n  %s\n  %s", i, digest, first)
		}
	}
}

// reconcileDigest generates the scenario, reconciles it one-shot (the
// nil-cache workspace ReconcileCtx builds) and summarises what it saw.
func reconcileDigest(t *testing.T) string {
	sc := scenario.Generate(scenario.Params{
		Services: 12, PortsPerService: 2, Flows: 12, BannedPorts: 2, Seed: 42,
	})
	scJSON, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	k8s, _, err := NewK8sParty(sys, sc.K8sCurrent, encode.AllSoft(), sc.K8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istio, _, err := NewIstioParty(sys, sc.IstioCurrent, encode.AllSoft(), sc.IstioRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkspace(sys, []partySpec{
		{party: k8s, enforceFixed: true, includeGoals: true},
		{party: istio, enforceFixed: true, includeGoals: true},
	}, false)
	res := ws.run(context.Background(), sat.Budget{})
	if !res.OK {
		t.Fatal("relaxed goals must reconcile")
	}
	answer := fmt.Sprintf("%v\n%s", res.Edits, res.Instance)
	s := ws.ss.Solver()
	return fmt.Sprintf("scenario %x answer %x vars %d clauses %d learnts %d conflicts %d propagations %d",
		sha256.Sum256(scJSON), sha256.Sum256([]byte(answer)),
		s.NumVars(), s.NumClauses(), s.NumLearnts(), s.Stats.Conflicts, s.Stats.Propagations)
}
