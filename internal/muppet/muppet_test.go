package muppet

import (
	"context"
	"strings"
	"testing"

	"muppet/internal/encode"
	"muppet/internal/envelope"
	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/scenario"
)

// fixture bundles the Fig. 1 walkthrough inputs.
type fixture struct {
	sys          *encode.System
	k8sCfg       *mesh.K8sConfig
	istioCfg     *mesh.IstioConfig
	k8sGoals     []goals.K8sGoal
	istioFig3    []goals.IstioGoal
	istioRevised []goals.IstioGoal
}

func loadFixture(t testing.TB) *fixture {
	t.Helper()
	bundle, err := mesh.LoadFiles(
		"../../testdata/fig1/mesh.yaml",
		"../../testdata/fig1/k8s_current.yaml",
		"../../testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := encode.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{sys: sys, k8sCfg: bundle.K8s, istioCfg: bundle.Istio}
	if f.k8sGoals, err = goals.LoadK8sGoals("../../testdata/fig1/k8s_goals.csv"); err != nil {
		t.Fatal(err)
	}
	if f.istioFig3, err = goals.LoadIstioGoals("../../testdata/fig1/istio_goals.csv"); err != nil {
		t.Fatal(err)
	}
	if f.istioRevised, err = goals.LoadIstioGoals("../../testdata/fig1/istio_goals_revised.csv"); err != nil {
		t.Fatal(err)
	}
	return f
}

// oneShot is the nil cache: each workflow call on it solves on a fresh
// one-shot workspace.
var oneShot *SolveCache

// mustEnvelope computes the envelope the senders send to recipient.
func mustEnvelope(t testing.TB, sys *encode.System, recipient *Party, senders ...*Party) *envelope.Envelope {
	t.Helper()
	env, err := ComputeEnvelopeCtx(context.Background(), sys, recipient, senders)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// verifyComposed checks the final configurations with the runtime
// evaluator: the Fig. 2 ban holds and the revised reachability goals hold.
func verifyComposed(t *testing.T, sys *encode.System, k8s *K8sPartyState, istio *IstioPartyState) {
	t.Helper()
	exposure := istio.Exposure
	if exposure == nil {
		exposure = map[string][]int{}
		for _, s := range sys.Mesh.Services {
			exposure[s.Name] = s.Ports
		}
	}
	m2 := sys.MeshWith(exposure)
	reach := mesh.ReachabilityMatrix(m2, k8s.Config, istio.Config)
	for pair, ports := range reach {
		for _, p := range ports {
			if p == 23 {
				t.Fatalf("port 23 reachable on %s — Fig. 2 goal violated", pair)
			}
		}
	}
	for _, pair := range []string{
		"test-frontend->test-backend",
		"test-backend->test-frontend",
		"test-backend->test-db",
		"test-db->test-backend",
	} {
		if len(reach[pair]) == 0 {
			t.Fatalf("%s unreachable — reachability goals violated (matrix: %v)", pair, reach)
		}
	}
}

func TestAlg1LocalConsistencyConsistent(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllHoles(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := oneShot.LocalConsistencyCtx(context.Background(), f.sys, k8sParty, []*Party{istioParty}, sat.Budget{})
	if !res.OK {
		t.Fatalf("Fig. 2 goal must be locally consistent: %v", res.Feedback)
	}
	// With the Istio side fully free, the solver can block port 23 over
	// there, leaving the K8s soft preferences untouched.
	if len(res.Edits) != 0 {
		t.Fatalf("no K8s edits should be needed, got %v", res.Edits)
	}
	// The completion must satisfy the K8s goal.
	for _, g := range k8sParty.Goals {
		if !relational.Eval(g.Formula, res.Instance) {
			t.Fatalf("completion violates %s", g.Name)
		}
	}
}

func TestAlg1LocalConsistencyInconsistent(t *testing.T) {
	f := loadFixture(t)
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
	res := oneShot.LocalConsistencyCtx(context.Background(), f.sys, k8sParty, []*Party{istioParty}, sat.Budget{})
	if res.OK {
		t.Fatal("contradictory goals must be locally inconsistent")
	}
	if res.Feedback == nil || len(res.Feedback.Core) != 2 {
		t.Fatalf("core should blame exactly the two goals: %v", res.Feedback)
	}
	for _, name := range res.Feedback.Core {
		if !strings.Contains(name, "k8s-goal") {
			t.Fatalf("unexpected core element %q", name)
		}
	}
}

func TestAlg1FixedConfigBlame(t *testing.T) {
	// A FIXED permissive K8s config cannot satisfy an egress-ban goal when
	// the destination is forced reachable… construct: goal DENY 16000 to
	// db, but K8s config is fully fixed (permissive) and Istio is also
	// fixed permissive — wait, Alg. 1 frees the other party. Instead make
	// the subject's own fixed config contradict its goal: ingressAllow
	// includes 23 while the goal demands 23 dead, with Istio *not* free to
	// help… Istio IS free in Alg. 1, so it can always block. The honest
	// fixed-config conflict is an ALLOW goal against a fixed deny.
	f := loadFixture(t)
	cfg := mesh.CloneK8s(f.k8sCfg)
	cfg.Policy("cluster-default").IngressDenyPorts = []int{16000}
	allowGoal := []goals.K8sGoal{{Port: 16000, Allow: true, Selector: map[string]string{"app": "db"}}}
	k8sParty, _, err := NewK8sParty(f.sys, cfg, encode.Offer{}, allowGoal) // fully fixed
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllHoles(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := oneShot.LocalConsistencyCtx(context.Background(), f.sys, k8sParty, []*Party{istioParty}, sat.Budget{})
	if res.OK {
		t.Fatal("fixed deny vs ALLOW goal must be inconsistent")
	}
	var hasGoal, hasConfig bool
	for _, name := range res.Feedback.Core {
		if strings.Contains(name, "k8s-goal") {
			hasGoal = true
		}
		if strings.Contains(name, "config[cluster-default.ingress.denyPorts]") {
			hasConfig = true
		}
	}
	if !hasGoal || !hasConfig {
		t.Fatalf("core must blame both the goal and the config fragment: %v", res.Feedback.Core)
	}
}

func TestAlg2ReconcileConflict(t *testing.T) {
	// Sec. 2: Fig. 2 + Fig. 3 goals cannot be reconciled.
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioFig3)
	if err != nil {
		t.Fatal(err)
	}
	res := oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if res.OK {
		t.Fatal("Fig. 2 ∧ Fig. 3 must fail to reconcile")
	}
	// The cross-party core must involve both parties' goals.
	var hasK8s, hasIstio bool
	for _, name := range res.Feedback.Core {
		if strings.HasPrefix(name, "K8s/k8s-goal") {
			hasK8s = true
		}
		if strings.HasPrefix(name, "Istio/istio-goals") {
			hasIstio = true
		}
	}
	if !hasK8s || !hasIstio {
		t.Fatalf("core must blame both parties' goals: %v", res.Feedback.Core)
	}
}

func TestAlg2ReconcileRevisedGoals(t *testing.T) {
	f := loadFixture(t)
	k8sParty, k8sState, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, istioState, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	res := oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if !res.OK {
		t.Fatalf("Fig. 2 ∧ Fig. 4 must reconcile: %v", res.Feedback)
	}
	k8sParty.adopt(res.Instance)
	istioParty.adopt(res.Instance)
	verifyComposed(t, f.sys, k8sState, istioState)
	if len(res.Edits) == 0 {
		t.Fatal("resolving the conflict must cost some soft edits")
	}
}

func TestFig7ConformanceWithRevisedGoals(t *testing.T) {
	// The full walkthrough in conformance mode: inflexible K8s provider,
	// Istio tenant with the Fig. 4 relaxed goals and a fully soft offer.
	f := loadFixture(t)
	k8sParty, k8sState, err := NewK8sParty(f.sys, f.k8sCfg, encode.Offer{}, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, istioState, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	out := oneShot.RunConformanceCtx(context.Background(), f.sys, k8sParty, istioParty, sat.Budget{})
	if !out.ProviderConsistent {
		t.Fatalf("provider must be locally consistent: %v", out.Feedback)
	}
	if out.Envelope == nil || out.Envelope.Trivial() {
		t.Fatal("E_{K8s→Istio} must be non-trivial (Fig. 5)")
	}
	if out.CandidateOK {
		t.Fatal("the tenant's current config must violate the envelope")
	}
	if !out.Reconciled {
		t.Fatalf("conformance must succeed (failed at %s): %v", out.FailedStep, out.Feedback)
	}
	if len(out.Edits) == 0 {
		t.Fatal("the tenant revision must involve edits")
	}
	verifyComposed(t, f.sys, k8sState, istioState)
}

func TestFig7ConformanceFailsWithStrictGoals(t *testing.T) {
	// With the original Fig. 3 goals the tenant cannot conform: the
	// revision step must fail and blame the conflict.
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.Offer{}, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioFig3)
	if err != nil {
		t.Fatal(err)
	}
	out := oneShot.RunConformanceCtx(context.Background(), f.sys, k8sParty, istioParty, sat.Budget{})
	if out.Reconciled {
		t.Fatal("strict Fig. 3 goals must not conform to the port-23 envelope")
	}
	if out.FailedStep != "revision" {
		t.Fatalf("failure should surface in the revision step, got %q", out.FailedStep)
	}
	if out.Feedback == nil || len(out.Feedback.Core) == 0 {
		t.Fatal("failure must carry blame")
	}
}

func TestFig8MinimalEditAgainstEnvelope(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.Offer{}, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, istioState, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	env := mustEnvelope(t, f.sys, istioParty, k8sParty)
	ok, failing := CheckCandidate(f.sys, istioParty, env, false, k8sParty)
	if ok || len(failing) == 0 {
		t.Fatal("current tenant config must fail the envelope with blame")
	}
	res := oneShot.MinimalEditCtx(context.Background(), f.sys, istioParty,
		append([]relational.Formula{env.Formula()}, istioParty.GoalFormulas()...), sat.Budget{}, k8sParty)
	if !res.OK {
		t.Fatalf("minimal edit must exist: %v", res.Feedback)
	}
	if len(res.Edits) == 0 {
		t.Fatal("edits must be non-empty")
	}
	istioParty.adopt(res.Instance)
	// The edited candidate now satisfies the envelope.
	ok, _ = CheckCandidate(f.sys, istioParty, env, false, k8sParty)
	if !ok {
		t.Fatal("edited candidate must satisfy the envelope")
	}
	_ = istioState
}

func TestFig9NegotiationImmediateReconcile(t *testing.T) {
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
	out := n.RunCtx(context.Background(), sat.Budget{})
	if !out.Reconciled || !out.InitialReconcile {
		t.Fatalf("fully-soft compatible parties must reconcile immediately: %+v", out)
	}
}

func TestFig9NegotiationRoundsAndHumanIntervention(t *testing.T) {
	f := loadFixture(t)
	// The K8s admin has already pushed the ban and is inflexible.
	pushed := mesh.CloneK8s(f.k8sCfg)
	pushed.Policy("cluster-default").IngressDenyPorts = []int{23}
	k8sParty, _, err := NewK8sParty(f.sys, pushed, encode.Offer{}, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	// The Istio admin starts with strict Fig. 3 goals and a fixed config.
	istioParty, istioState, err := NewIstioParty(f.sys, f.istioCfg, encode.Offer{}, f.istioFig3)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNegotiation(f.sys, k8sParty, istioParty)
	out := n.RunCtx(context.Background(), sat.Budget{})
	if out.Reconciled {
		t.Fatal("strict goals + fixed offers must not reconcile")
	}
	if out.Feedback == nil || len(out.Feedback.Core) == 0 {
		t.Fatal("negotiation failure must carry blame for the humans")
	}
	if len(out.Rounds) == 0 {
		t.Fatal("rounds must have been attempted")
	}

	// Human intervention (the Fig. 4 move): the Istio admin relaxes goals
	// and widens the negotiable region, then negotiation resumes.
	revisedParty, revisedState, err := NewIstioParty(f.sys, istioState.Config, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	n2 := NewNegotiation(f.sys, k8sParty, revisedParty)
	out2 := n2.RunCtx(context.Background(), sat.Budget{})
	if !out2.Reconciled {
		t.Fatalf("negotiation with relaxed goals must succeed: %v", out2.Feedback)
	}
	verifyComposed(t, f.sys, &K8sPartyState{Config: pushed}, revisedState)
}

// TestNegotiationTurnAdoptsRevision starts Fig. 9 from the pushed port-23
// ban with soft offers, where the parties revise with real edits, and
// requires every turn that edits the acting party's own knobs to leave the
// party holding its counter-offer, so later envelopes and reconciles see
// it.
func TestNegotiationTurnAdoptsRevision(t *testing.T) {
	f := loadFixture(t)
	pushed := mesh.CloneK8s(f.k8sCfg)
	pushed.Policy("cluster-default").IngressDenyPorts = []int{23}
	k8sParty, _, err := NewK8sParty(f.sys, pushed, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioFig3)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNegotiation(f.sys, k8sParty, istioParty)
	ownEdits := 0
	n.Turn = func(ctx context.Context, round, i int, env *envelope.Envelope, b sat.Budget) (*Result, error) {
		p := n.parties[i]
		before := p.Describe()
		res, err := n.revise(ctx, round, i, env, b)
		if res == nil || !res.OK {
			return res, err
		}
		for _, e := range res.Edits {
			if e.Party == p.Name {
				ownEdits++
				if p.Describe() == before {
					t.Errorf("round %d: %s edited its own knobs but kept its configuration", round, p.Name)
				}
				break
			}
		}
		return res, err
	}
	n.RunCtx(context.Background(), sat.Budget{})
	if ownEdits == 0 {
		t.Fatal("no turn edited the acting party's own knobs; the test exercised nothing")
	}
}

func TestFig6MonolithicBaseline(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllHoles(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllHoles(), f.istioFig3)
	if err != nil {
		t.Fatal(err)
	}
	res := SynthesizeMonolithicCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if res.OK {
		t.Fatal("monolithic synthesis must fail on the conflicted union (Sec. 2)")
	}
	// The contrast with the multi-party flow: the same goal sets, with
	// Fig. 4 relaxation, succeed monolithically too…
	istioRevised, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllHoles(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	res = SynthesizeMonolithicCtx(context.Background(), f.sys, []*Party{k8sParty, istioRevised}, sat.Budget{})
	if !res.OK {
		t.Fatalf("monolithic synthesis of compatible goals should work: %v", res.Feedback)
	}
}

func TestThreePartyEnvelopeAndNegotiation(t *testing.T) {
	// Sec. 7 extension: a third administrator (security ops) owning a
	// separate K8s policy shell. The joint envelope E_{secops,K8s→Istio}
	// merges both senders' goals.
	bundle, err := mesh.LoadFiles(
		"../../testdata/fig1/mesh.yaml",
		"../../testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	clusterShell := &mesh.NetworkPolicy{Name: "cluster-default"}
	secopsShell := &mesh.NetworkPolicy{Name: "secops", Selector: map[string]string{"app": "db"}}
	sys, err := encode.NewSystem(bundle.Mesh,
		[]*mesh.NetworkPolicy{clusterShell}, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	// secops gets its own system? No — one system with both shells.
	sys, err = encode.NewSystem(bundle.Mesh,
		[]*mesh.NetworkPolicy{clusterShell, secopsShell}, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		t.Fatal(err)
	}

	k8sGoalRows, err := goals.LoadK8sGoals("../../testdata/fig1/k8s_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	istioRows, err := goals.LoadIstioGoals("../../testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		t.Fatal(err)
	}

	// NOTE: both K8s-side parties share the K8s relations; Muppet's model
	// assumes non-overlapping domains, so the two K8s parties split by
	// policy shell via offers: each fixes the other's shell as holes. For
	// the envelope computation we treat them as two senders.
	k8sParty, _, err := NewK8sParty(sys, &mesh.K8sConfig{Policies: []*mesh.NetworkPolicy{{Name: "cluster-default"}}}, encode.AllSoft(), k8sGoalRows)
	if err != nil {
		t.Fatal(err)
	}
	// SecOps bans reaching the backend on 16000 (a port it does not even
	// serve — but exposure is negotiable, so this is a real obligation on
	// the Istio side). It is compatible with the Fig. 4 goals.
	secopsGoal := []goals.K8sGoal{{Port: 16000, Allow: false, Selector: map[string]string{"app": "backend"}}}
	secopsParty, _, err := NewK8sParty(sys, &mesh.K8sConfig{Policies: []*mesh.NetworkPolicy{{Name: "secops"}}}, encode.AllSoft(), secopsGoal)
	if err != nil {
		t.Fatal(err)
	}
	secopsParty.Name = "SecOps"
	istioParty, istioState, err := NewIstioParty(sys, bundle.Istio, encode.AllSoft(), istioRows)
	if err != nil {
		t.Fatal(err)
	}

	env := mustEnvelope(t, sys, istioParty, k8sParty, secopsParty)
	if env.Trivial() {
		t.Fatal("joint envelope must be non-trivial")
	}
	if !strings.Contains(env.From, "K8s") || !strings.Contains(env.From, "SecOps") {
		t.Fatalf("joint envelope should name both senders: %q", env.From)
	}

	n := NewNegotiation(sys, k8sParty, secopsParty, istioParty)
	out := n.RunCtx(context.Background(), sat.Budget{})
	if !out.Reconciled {
		t.Fatalf("three-party negotiation must reconcile: %v", out.Feedback)
	}
	// Port 23 dead everywhere and db:16000 unreachable; mesh still works.
	exposure := istioState.Exposure
	m2 := sys.MeshWith(exposure)
	k8sFinal := &mesh.K8sConfig{}
	// Merge both K8s parties' adopted configs (they share the relation
	// space; adopt decodes all shells for each, so either carries both).
	k8sFinal = decodeVia(sys, k8sParty)
	reach := mesh.ReachabilityMatrix(m2, k8sFinal, istioState.Config)
	for pair, ports := range reach {
		for _, p := range ports {
			if p == 23 {
				t.Fatalf("port 23 reachable on %s", pair)
			}
			if p == 16000 && strings.HasSuffix(pair, "->test-backend") {
				t.Fatalf("backend reachable on 16000 via %s despite SecOps goal", pair)
			}
		}
	}
	for _, pair := range []string{"test-frontend->test-backend", "test-backend->test-frontend"} {
		if len(reach[pair]) == 0 {
			t.Fatalf("%s unreachable", pair)
		}
	}
}

// decodeVia extracts the K8s config a party adopted (test helper).
func decodeVia(sys *encode.System, p *Party) *mesh.K8sConfig {
	// The party's fixed() map carries its current concrete settings; build
	// an instance and decode.
	inst := instanceFor(sys, p)
	return sys.DecodeK8s(inst)
}

func TestGoalsCompatible(t *testing.T) {
	// Sec. 3's second envelope use: compare E_{K8s→Istio} with the
	// recipient's goals. The strict Fig. 3 goals are incompatible — no
	// Istio configuration can both ban 23 and deliver backend→frontend:23
	// given the K8s side's current settings; the Fig. 4 goals are
	// compatible.
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.Offer{}, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	strictParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioFig3)
	if err != nil {
		t.Fatal(err)
	}
	env := mustEnvelope(t, f.sys, strictParty, k8sParty)
	res := GoalsCompatibleCtx(context.Background(), f.sys, strictParty, env, sat.Budget{}, k8sParty)
	if res.OK {
		t.Fatal("strict Fig. 3 goals must be incompatible with the envelope")
	}
	var hasEnv, hasGoal bool
	for _, name := range res.Feedback.Core {
		if strings.Contains(name, "envelope") {
			hasEnv = true
		}
		if strings.Contains(name, "istio-goals") {
			hasGoal = true
		}
	}
	if !hasEnv || !hasGoal {
		t.Fatalf("core must blame the envelope and the goals: %v", res.Feedback.Core)
	}

	relaxedParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	res = GoalsCompatibleCtx(context.Background(), f.sys, relaxedParty, env, sat.Budget{}, k8sParty)
	if !res.OK {
		t.Fatalf("Fig. 4 goals must be compatible: %v", res.Feedback)
	}
}

func TestDescribeAndStrings(t *testing.T) {
	f := loadFixture(t)
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k8sParty.Describe(), "cluster-default") {
		t.Fatalf("Describe: %q", k8sParty.Describe())
	}
	if len(k8sParty.GoalFormulas()) != len(k8sParty.Goals) {
		t.Fatal("GoalFormulas length")
	}
	e := Edit{Party: "Istio", Knob: encode.PortKnob("p", encode.FieldIAllowTo, 23), Add: true}
	if !strings.Contains(e.String(), "add") || !strings.Contains(e.String(), "allow_to_ports") {
		t.Fatalf("Edit.String: %q", e)
	}
	e.Add = false
	if !strings.Contains(e.String(), "remove") {
		t.Fatalf("Edit.String: %q", e)
	}
	var fb *Feedback
	if fb.String() != "no feedback" {
		t.Fatal("nil feedback string")
	}
	fb = &Feedback{Core: []string{"a", "b"}}
	if !strings.Contains(fb.String(), "a") || !strings.Contains(fb.String(), "b") {
		t.Fatalf("Feedback.String: %q", fb)
	}
}

// TestReconcileExtendsFixedOffers is DESIGN.md property 7: reconciled
// configurations extend both partial offers — every fixed knob keeps its
// offered value in the delivered configuration.
func TestReconcileExtendsFixedOffers(t *testing.T) {
	f := loadFixture(t)
	// K8s fixes an unrelated egress deny; Istio fixes one allow entry.
	k8sCfg := mesh.CloneK8s(f.k8sCfg)
	k8sCfg.Policy("cluster-default").EgressDenyPorts = []int{26}
	k8sOffer := encode.Offer{Soft: []encode.Knob{
		encode.WildcardKnob("cluster-default", encode.FieldKIngressDeny),
		encode.WildcardKnob("cluster-default", encode.FieldKIngressAllow),
		encode.WildcardKnob("cluster-default", encode.FieldKEgressAllow),
	}} // egress deny stays fixed
	k8sParty, k8sState, err := NewK8sParty(f.sys, k8sCfg, k8sOffer, f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioOffer := encode.AllSoft()
	istioParty, istioState, err := NewIstioParty(f.sys, f.istioCfg, istioOffer, f.istioRevised)
	if err != nil {
		t.Fatal(err)
	}
	res := oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if !res.OK {
		t.Fatalf("must reconcile: %v", res.Feedback)
	}
	k8sParty.adopt(res.Instance)
	istioParty.adopt(res.Instance)
	// The fixed egress deny must survive verbatim.
	got := k8sState.Config.Policy("cluster-default").EgressDenyPorts
	if len(got) != 1 || got[0] != 26 {
		t.Fatalf("fixed egress deny not preserved: %v", got)
	}
	_ = istioState
}

// TestNegotiationConvergence is DESIGN.md property 8: with a satisfiable
// joint goal set and negotiable offers, negotiation terminates reconciled
// across random generated scenarios.
func TestNegotiationConvergence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		sc := generateScenario(t, seed)
		sys, err := sc.System()
		if err != nil {
			t.Fatal(err)
		}
		k8sParty, _, err := NewK8sParty(sys, sc.K8sCurrent, encode.AllSoft(), sc.K8sGoals)
		if err != nil {
			t.Fatal(err)
		}
		istioParty, _, err := NewIstioParty(sys, sc.IstioCurrent, encode.AllSoft(), sc.IstioRelaxed)
		if err != nil {
			t.Fatal(err)
		}
		out := NewNegotiation(sys, k8sParty, istioParty).RunCtx(context.Background(), sat.Budget{})
		if !out.Reconciled {
			t.Fatalf("seed %d: negotiation must converge: %v", seed, out.Feedback)
		}
	}
}

func generateScenario(t *testing.T, seed int64) *scenario.Scenario {
	t.Helper()
	return scenario.Generate(scenario.Params{
		Services:        4,
		PortsPerService: 2,
		Flows:           4,
		BannedPorts:     1,
		Seed:            seed,
	})
}
