package muppet_test

import (
	"context"
	"strings"
	"testing"

	"muppet"
	"muppet/internal/relational"
)

// mustEnvelope computes the envelope the senders send to recipient.
func mustEnvelope(t testing.TB, sys *muppet.System, recipient *muppet.Party, senders ...*muppet.Party) *muppet.Envelope {
	t.Helper()
	env, err := muppet.ComputeEnvelopeCtx(context.Background(), sys, recipient, senders)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestPublicAPIWalkthrough drives the paper's Sec. 3 story end to end
// through the public API only: conflict, envelope, relaxation, conformance,
// verification.
func TestPublicAPIWalkthrough(t *testing.T) {
	bundle, err := muppet.LoadFiles(
		"testdata/fig1/mesh.yaml",
		"testdata/fig1/k8s_current.yaml",
		"testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	k8sGoals, err := muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	strict, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		t.Fatal(err)
	}

	// The conflict.
	k8sParty, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.AllSoft(), k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	strictParty, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), strict)
	if err != nil {
		t.Fatal(err)
	}
	if res := muppet.ReconcileCtx(context.Background(), sys, []*muppet.Party{k8sParty, strictParty}, muppet.Budget{}); res.OK {
		t.Fatal("Fig. 2 ∧ Fig. 3 must conflict")
	}

	// The envelope.
	env := mustEnvelope(t, sys, strictParty, k8sParty)
	if env.Trivial() || env.Unsatisfiable() {
		t.Fatal("E_{K8s→Istio} must be non-trivial and satisfiable")
	}

	// Conformance with the relaxation.
	provider, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.Offer{}, k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	tenant, tenantState, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), relaxed)
	if err != nil {
		t.Fatal(err)
	}
	out := muppet.RunConformanceCtx(context.Background(), sys, provider, tenant, muppet.Budget{})
	if !out.Reconciled {
		t.Fatalf("conformance must succeed: failed at %s: %v", out.FailedStep, out.Feedback)
	}

	// Verify with the runtime evaluator.
	m2 := sys.MeshWith(tenantState.Exposure)
	reach := muppet.ReachabilityMatrix(m2, bundle.K8s, tenantState.Config)
	for pair, ports := range reach {
		for _, p := range ports {
			if p == 23 {
				t.Fatalf("port 23 reachable on %s", pair)
			}
		}
	}
	for _, pair := range []string{
		"test-frontend->test-backend", "test-backend->test-frontend",
		"test-backend->test-db", "test-db->test-backend",
	} {
		if len(reach[pair]) == 0 {
			t.Fatalf("%s must stay reachable", pair)
		}
	}
}

// TestFig5EnvelopeGolden pins the printed Fig. 5 envelope: the five
// disjunct families, in the paper's Alloy-like syntax.
func TestFig5EnvelopeGolden(t *testing.T) {
	bundle, err := muppet.LoadFiles(
		"testdata/fig1/mesh.yaml",
		"testdata/fig1/k8s_current.yaml",
		"testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	k8sGoals, err := muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	k8sParty, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.Offer{}, k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), nil)
	if err != nil {
		t.Fatal(err)
	}
	env := mustEnvelope(t, sys, istioParty, k8sParty)

	got := env.String()
	want := "// envelope E_{K8s→Istio}\n" +
		"all src: Service, dst: {test-frontend + test-backend + test-db} | " +
		"(not (port:23 in (dst.active_ports)) " +
		"or port:23 in ({ap: AuthPolicy | (ap->src) in target}.deny_to_ports) " +
		"or (some ({ap: AuthPolicy | (ap->src) in target}.allow_to_ports) " +
		"and not (port:23 in ({ap: AuthPolicy | (ap->src) in target}.allow_to_ports))) " +
		"or src in ({ap: AuthPolicy | (ap->dst) in target}.deny_from_service) " +
		"or (some ({ap: AuthPolicy | (ap->dst) in target}.allow_from_service) " +
		"and not (src in ({ap: AuthPolicy | (ap->dst) in target}.allow_from_service))))\n"
	if got != want {
		t.Fatalf("Fig. 5 envelope drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The Fig. 5 caption's five numbered disjuncts, structurally:
	for i, frag := range []string{
		"not (port:23 in (dst.active_ports))",                               // (1) not listening
		".deny_to_ports",                                                    // (2) explicit egress deny
		"allow_to_ports) and not (port:23",                                  // (3) implicit egress deny
		"src in ({ap: AuthPolicy | (ap->dst) in target}.deny_from_service)", // (4) explicit ingress deny
		"allow_from_service) and not (src",                                  // (5) implicit ingress deny
	} {
		if !strings.Contains(got, frag) {
			t.Fatalf("disjunct %d missing: %q", i+1, frag)
		}
	}
}

// TestScenarioAPIRoundTrip exercises the scenario generator through the
// public API.
func TestScenarioAPIRoundTrip(t *testing.T) {
	sc := muppet.GenerateScenario(muppet.ScenarioParams{
		Services: 5, PortsPerService: 2, Flows: 5, BannedPorts: 1, Seed: 11,
	})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), sc.K8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), sc.IstioRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	res := muppet.ReconcileCtx(context.Background(), sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{})
	if !res.OK {
		t.Fatalf("generated scenario must reconcile: %v", res.Feedback)
	}
}

// TestPortTermHelpers covers the re-exported goal constructors.
func TestPortTermHelpers(t *testing.T) {
	if muppet.LitPort(23).Kind != muppet.PortLit || muppet.LitPort(23).Port != 23 {
		t.Fatal("LitPort")
	}
	if muppet.AnyPort().Kind != muppet.PortAny {
		t.Fatal("AnyPort")
	}
	if muppet.VarPort("w").Kind != muppet.PortVar || muppet.VarPort("w").Var != "w" {
		t.Fatal("VarPort")
	}
}

// TestFacadeCoverage exercises the remaining public wrappers end to end.
func TestFacadeCoverage(t *testing.T) {
	bundle, err := muppet.ParseAll([]byte(`
kind: Service
metadata:
  name: a
  labels:
    app: a
spec:
  ports:
    - 80
---
kind: Service
metadata:
  name: b
  labels:
    app: b
spec:
  ports:
    - 81
---
kind: NetworkPolicy
metadata:
  name: np
spec:
  podSelector: {}
---
kind: AuthorizationPolicy
metadata:
  name: ap
spec:
  selector:
    matchLabels:
      app: b
`))
	if err != nil {
		t.Fatal(err)
	}
	if !muppet.Allowed(bundle.Mesh, bundle.K8s, bundle.Istio, muppet.Flow{Src: "a", Dst: "b", DstPort: 81}) {
		t.Fatal("open mesh should allow a→b:81")
	}
	v := muppet.Evaluate(bundle.Mesh, bundle.K8s, bundle.Istio, muppet.Flow{Src: "a", Dst: "b", DstPort: 9})
	if v.Allowed || v.Reason == "" {
		t.Fatalf("non-listening port: %+v", v)
	}

	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies, []int{80, 81})
	if err != nil {
		t.Fatal(err)
	}
	k8sParty, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.AllSoft(),
		[]muppet.K8sGoal{{Port: 80, Allow: false}})
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(),
		[]muppet.IstioGoal{{Src: "a", Dst: "b", SrcPort: muppet.AnyPort(), DstPort: muppet.VarPort("p"), Allow: true}})
	if err != nil {
		t.Fatal(err)
	}

	// Alg. 1 via the façade.
	if res := muppet.LocalConsistencyCtx(context.Background(), sys, k8sParty, []*muppet.Party{istioParty}, muppet.Budget{}); !res.OK {
		t.Fatalf("local consistency: %v", res.Feedback)
	}
	// Monolithic baseline via the façade.
	if res := muppet.SynthesizeMonolithicCtx(context.Background(), sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{}); !res.OK {
		t.Fatalf("monolithic: %v", res.Feedback)
	}
	// Envelope + English + goal comparison + candidate check + edit.
	env := mustEnvelope(t, sys, istioParty, k8sParty)
	prose := muppet.EnglishEnvelope(sys, env)
	if !strings.Contains(prose, "E_{K8s→Istio}") {
		t.Fatalf("prose: %q", prose)
	}
	if res := muppet.GoalsCompatibleCtx(context.Background(), sys, istioParty, env, muppet.Budget{}, k8sParty); !res.OK {
		t.Fatalf("goals should be compatible: %v", res.Feedback)
	}
	ok, _ := muppet.CheckCandidate(sys, istioParty, env, false, k8sParty)
	_ = ok
	edit := muppet.MinimalEditCtx(context.Background(), sys, istioParty,
		append([]relational.Formula{env.Formula()}, istioParty.GoalFormulas()...), muppet.Budget{}, k8sParty)
	if !edit.OK {
		t.Fatalf("minimal edit: %v", edit.Feedback)
	}
	// Negotiation via the façade.
	out := muppet.NewNegotiation(sys, k8sParty, istioParty).RunCtx(context.Background(), muppet.Budget{})
	if !out.Reconciled {
		t.Fatalf("negotiation: %v", out.Feedback)
	}
	// Trivial-envelope prose.
	quiet, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), nil)
	if err != nil {
		t.Fatal(err)
	}
	envTrivial := mustEnvelope(t, sys, k8sParty, quiet)
	if !envTrivial.Trivial() {
		t.Fatal("goal-less sender must produce a trivial envelope")
	}
	if !strings.Contains(muppet.EnglishEnvelope(sys, envTrivial), "no obligations") {
		t.Fatal("trivial prose missing")
	}
}
