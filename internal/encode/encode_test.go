package encode

import (
	"math/rand"
	"reflect"
	"testing"

	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/relational"
	"muppet/internal/sat"
)

// fig1System builds the walkthrough system: Fig. 1 mesh, the istio_current
// policy shells, one catch-all K8s shell, plus the ports the goal tables
// mention.
func fig1System(t testing.TB) *System {
	t.Helper()
	bundle, err := mesh.LoadFiles(
		"../../testdata/fig1/mesh.yaml",
		"../../testdata/fig1/k8s_current.yaml",
		"../../testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func fig1Configs(t testing.TB) (*mesh.K8sConfig, *mesh.IstioConfig) {
	t.Helper()
	bundle, err := mesh.LoadFiles(
		"../../testdata/fig1/k8s_current.yaml",
		"../../testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	return bundle.K8s, bundle.Istio
}

func TestSystemVocabulary(t *testing.T) {
	sys := fig1System(t)
	if got := len(sys.PortList); got != 8 {
		t.Fatalf("port inventory size %d: %v", got, sys.PortList)
	}
	if !sys.HasPort(23) || sys.HasPort(80) {
		t.Fatal("HasPort broken")
	}
	if sys.Universe.Index("test-backend") < 0 || sys.Universe.Index("port:23") < 0 ||
		sys.Universe.Index("np:cluster-default") < 0 || sys.Universe.Index("ap:frontend-policy") < 0 {
		t.Fatal("expected atoms missing")
	}
}

func TestStructuralBounds(t *testing.T) {
	sys := fig1System(t)
	b := sys.NewBounds()
	if b.Lower(sys.Service).Len() != 3 {
		t.Fatalf("Service bound: %v", b.Lower(sys.Service))
	}
	// cluster-default selects all three services.
	if b.Lower(sys.NetSel).Len() != 3 {
		t.Fatalf("NetSel: %v", b.Lower(sys.NetSel))
	}
	// Each istio policy targets exactly one service.
	if b.Lower(sys.AuthTarget).Len() != 3 {
		t.Fatalf("AuthTarget: %v", b.Lower(sys.AuthTarget))
	}
	// ActivePorts is not bound structurally (it is configurable).
	if b.Lower(sys.ActivePorts) != nil {
		t.Fatal("ActivePorts must not be bound by NewBounds")
	}
}

// flowFormula builds FlowAllowed over constants for a concrete flow.
func flowFormula(sys *System, f mesh.Flow) relational.Formula {
	return sys.FlowAllowed(sys.ServiceConst(f.Src), sys.ServiceConst(f.Dst), sys.PortConst(f.DstPort))
}

// TestFlowFormulaMatchesEvaluator is the encoding-fidelity property: on
// random total configurations, the logical admission formula agrees with
// the direct mesh evaluator for every representable flow.
func TestFlowFormulaMatchesEvaluator(t *testing.T) {
	sys := fig1System(t)
	rng := rand.New(rand.NewSource(77))
	services := sys.Mesh.ServiceNames()
	for iter := 0; iter < 60; iter++ {
		k8s, istio, exposure := randomConfigs(rng, sys)
		m2 := sys.MeshWith(exposure)
		inst := sys.InstanceFor(k8s, istio, exposure)
		for _, src := range services {
			for _, dst := range services {
				for _, port := range sys.PortList {
					f := mesh.Flow{Src: src, Dst: dst, DstPort: port}
					want := mesh.Allowed(m2, k8s, istio, f)
					got := relational.Eval(flowFormula(sys, f), inst)
					if got != want {
						t.Fatalf("iter %d flow %v: logic=%v runtime=%v\nk8s:\n%s\nistio:\n%s\nexposure: %v",
							iter, f, got, want, mesh.DescribeK8s(k8s), mesh.DescribeIstio(istio), exposure)
					}
				}
			}
		}
	}
}

// randomConfigs draws a random total configuration over the system's
// shells and port inventory.
func randomConfigs(rng *rand.Rand, sys *System) (*mesh.K8sConfig, *mesh.IstioConfig, map[string][]int) {
	pick := func(prob int) []int {
		var out []int
		for _, p := range sys.PortList {
			if rng.Intn(prob) == 0 {
				out = append(out, p)
			}
		}
		return out
	}
	pickSvcs := func(prob int) []string {
		var out []string
		for _, s := range sys.Mesh.Services {
			if rng.Intn(prob) == 0 {
				out = append(out, s.Name)
			}
		}
		return out
	}
	k8s := &mesh.K8sConfig{}
	for _, shell := range sys.K8sShells {
		k8s.Policies = append(k8s.Policies, &mesh.NetworkPolicy{
			Name:              shell.Name,
			Selector:          shell.Selector,
			IngressDenyPorts:  pick(5),
			IngressAllowPorts: pick(4),
			EgressDenyPorts:   pick(5),
			EgressAllowPorts:  pick(4),
		})
	}
	istio := &mesh.IstioConfig{}
	for _, shell := range sys.IstioShells {
		istio.Policies = append(istio.Policies, &mesh.AuthorizationPolicy{
			Name:              shell.Name,
			Target:            shell.Target,
			DenyToPorts:       pick(6),
			AllowToPorts:      pick(5),
			DenyFromServices:  pickSvcs(4),
			AllowFromServices: pickSvcs(3),
		})
	}
	exposure := make(map[string][]int)
	for _, s := range sys.Mesh.Services {
		exposure[s.Name] = pick(3)
	}
	return k8s, istio, exposure
}

func TestFig2ConflictsWithFig3(t *testing.T) {
	// The paper's Sec. 2 claim: the union of the Fig. 2 and Fig. 3 goal
	// sets is unsatisfiable — no configuration pair meets both.
	sys := fig1System(t)
	k8sGoals, err := goals.LoadK8sGoals("../../testdata/fig1/k8s_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	istioGoals, err := goals.LoadIstioGoals("../../testdata/fig1/istio_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	fk, err := sys.CompileK8sGoals(k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := sys.CompileIstioGoals(istioGoals)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.NewBounds()
	sys.BindK8s(b, &mesh.K8sConfig{}, AllHoles())
	sys.BindIstio(b, &mesh.IstioConfig{}, AllHoles())
	_, st := relational.Solve(relational.Problem{Bounds: b, Formula: relational.And(fk, fi)})
	if st != sat.Unsat {
		t.Fatalf("Fig. 2 ∧ Fig. 3 should be UNSAT, got %v", st)
	}
}

func TestFig3GoalsAloneSatisfiable(t *testing.T) {
	sys := fig1System(t)
	istioGoals, err := goals.LoadIstioGoals("../../testdata/fig1/istio_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := sys.CompileIstioGoals(istioGoals)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.NewBounds()
	sys.BindK8s(b, &mesh.K8sConfig{}, AllHoles())
	sys.BindIstio(b, &mesh.IstioConfig{}, AllHoles())
	inst, st := relational.Solve(relational.Problem{Bounds: b, Formula: fi})
	if st != sat.Sat {
		t.Fatalf("Fig. 3 alone should be SAT, got %v", st)
	}
	// Verify the synthesized configuration with the runtime evaluator.
	k8s := sys.DecodeK8s(inst)
	istio := sys.DecodeIstio(inst)
	m2 := sys.MeshWith(sys.DecodeExposure(inst))
	for _, f := range []mesh.Flow{
		{Src: "test-frontend", Dst: "test-backend", SrcPort: 24, DstPort: 25},
		{Src: "test-backend", Dst: "test-frontend", SrcPort: 26, DstPort: 23},
		{Src: "test-backend", Dst: "test-db", SrcPort: 14000, DstPort: 16000},
		{Src: "test-db", Dst: "test-backend", SrcPort: 10000, DstPort: 12000},
	} {
		if !mesh.Allowed(m2, k8s, istio, f) {
			t.Fatalf("synthesized configuration does not admit %v", f)
		}
	}
}

func TestFig4RevisedGoalsResolveConflict(t *testing.T) {
	// The walkthrough's resolution: with relaxed ∃-port goals (Fig. 4),
	// both parties' goals become jointly satisfiable, and the synthesized
	// system blocks port 23 while keeping the mesh reachable.
	sys := fig1System(t)
	k8sGoals, err := goals.LoadK8sGoals("../../testdata/fig1/k8s_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	revised, err := goals.LoadIstioGoals("../../testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		t.Fatal(err)
	}
	fk, err := sys.CompileK8sGoals(k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := sys.CompileIstioGoals(revised)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.NewBounds()
	sys.BindK8s(b, &mesh.K8sConfig{}, AllHoles())
	sys.BindIstio(b, &mesh.IstioConfig{}, AllHoles())
	inst, st := relational.Solve(relational.Problem{Bounds: b, Formula: relational.And(fk, fi)})
	if st != sat.Sat {
		t.Fatalf("Fig. 2 ∧ Fig. 4 should be SAT, got %v", st)
	}
	k8s := sys.DecodeK8s(inst)
	istio := sys.DecodeIstio(inst)
	exposure := sys.DecodeExposure(inst)
	m2 := sys.MeshWith(exposure)
	// The fixed-port rows must hold verbatim.
	for _, f := range []mesh.Flow{
		{Src: "test-backend", Dst: "test-db", SrcPort: 14000, DstPort: 16000},
		{Src: "test-db", Dst: "test-backend", SrcPort: 10000, DstPort: 12000},
	} {
		if !mesh.Allowed(m2, k8s, istio, f) {
			t.Fatalf("synthesized configuration does not admit %v", f)
		}
	}
	// The ∃-rows must hold for some ports.
	reach := mesh.ReachabilityMatrix(m2, k8s, istio)
	if len(reach["test-frontend->test-backend"]) == 0 {
		t.Fatal("frontend→backend must be reachable on some port")
	}
	beToFe := reach["test-backend->test-frontend"]
	if len(beToFe) == 0 {
		t.Fatal("backend→frontend must be reachable on some port")
	}
	// The K8s goal must hold: nothing reachable on port 23 anywhere.
	for pair, ports := range reach {
		for _, p := range ports {
			if p == 23 {
				t.Fatalf("port 23 reachable on %s — violates the Fig. 2 goal", pair)
			}
		}
	}
}

func TestOfferStates(t *testing.T) {
	sys := fig1System(t)
	_, istio := fig1Configs(t)
	offer := Offer{
		Soft:  []Knob{ServiceKnob("frontend-policy", FieldIAllowFrom, "test-db")},
		Holes: []Knob{WildcardKnob("backend-policy", FieldIDenyTo)},
	}
	b := sys.NewBounds()
	om := sys.BindIstio(b, istio, offer)

	var soft, holes, fixed int
	for _, ki := range om.Infos {
		switch ki.State {
		case StateSoft:
			soft++
		case StateHole:
			holes++
		default:
			fixed++
		}
	}
	if soft != 1 {
		t.Fatalf("want 1 soft knob, got %d", soft)
	}
	if holes != len(sys.PortList) {
		t.Fatalf("want %d hole knobs (one per port), got %d", len(sys.PortList), holes)
	}
	if fixed == 0 {
		t.Fatal("remaining knobs must be fixed")
	}

	// Fixed present tuples are in the lower bound; fixed absent are
	// outside the upper bound; soft/hole are free.
	for _, ki := range om.Infos {
		lower := b.Lower(ki.Rel)
		upper := b.Upper(ki.Rel)
		switch ki.State {
		case StateFixed:
			if ki.Desired != lower.Contains(ki.Tuple) {
				t.Fatalf("fixed knob %v: lower mismatch", ki.Knob)
			}
			if ki.Desired != upper.Contains(ki.Tuple) {
				t.Fatalf("fixed knob %v: upper mismatch", ki.Knob)
			}
		default:
			if lower.Contains(ki.Tuple) || !upper.Contains(ki.Tuple) {
				t.Fatalf("free knob %v must be upper-only", ki.Knob)
			}
		}
	}
}

func TestAllSoftAllHoles(t *testing.T) {
	sys := fig1System(t)
	k8s, _ := fig1Configs(t)
	b := sys.NewBounds()
	om := sys.BindK8s(b, k8s, AllSoft())
	for _, ki := range om.Infos {
		if ki.State != StateSoft {
			t.Fatalf("AllSoft: knob %v has state %d", ki.Knob, ki.State)
		}
	}
	b2 := sys.NewBounds()
	om2 := sys.BindK8s(b2, k8s, AllHoles())
	for _, ki := range om2.Infos {
		if ki.State != StateHole {
			t.Fatalf("AllHoles: knob %v has state %d", ki.Knob, ki.State)
		}
	}
	if len(om.SoftInfos()) != len(om.Infos) || len(om2.HoleInfos()) != len(om2.Infos) {
		t.Fatal("SoftInfos/HoleInfos filters broken")
	}
}

// TestClassifyIntoReusedBuffer: classifying into a buffer a previous
// call filled answers as a fresh classification does, the exposure
// override alone decides the exposure knobs' desired values, and the free
// bounds a session binds once are the ones BindIstioFree binds per call.
func TestClassifyIntoReusedBuffer(t *testing.T) {
	sys := fig1System(t)
	_, istio := fig1Configs(t)
	svc, port := sys.Mesh.Services[0].Name, sys.PortList[0]
	exposure := map[string][]int{svc: {port}}

	buf := sys.ClassifyIstio(nil, istio, nil, Offer{})
	buf = sys.ClassifyIstio(buf, istio, exposure, AllSoft())
	fresh := sys.ClassifyIstio(nil, istio, exposure, AllSoft())
	if !reflect.DeepEqual(buf, fresh) {
		t.Fatal("classification into a reused buffer differs from a fresh one")
	}
	exposed := 0
	for _, ki := range fresh {
		if ki.State != StateSoft {
			t.Fatalf("AllSoft: knob %v has state %d", ki.Knob, ki.State)
		}
		if ki.Knob.Field == FieldExposure && ki.Desired {
			exposed++
			if ki.Knob != PortKnob(svc, FieldExposure, port) {
				t.Fatalf("knob %v desired, but the override exposes only %s:%d", ki.Knob, svc, port)
			}
		}
	}
	if exposed != 1 {
		t.Fatalf("%d exposure knobs desired, want 1", exposed)
	}

	perCall, once := sys.NewBounds(), sys.NewBounds()
	om := sys.BindIstioFree(perCall, istio, AllSoft())
	sys.BindIstioDomain(once)
	if !reflect.DeepEqual(perCall.Relations(), once.Relations()) {
		t.Fatal("BindIstioDomain binds the relations in another order than BindIstioFree")
	}
	for _, r := range once.Relations() {
		if !perCall.Upper(r).Equal(once.Upper(r)) || !perCall.Lower(r).Equal(once.Lower(r)) {
			t.Fatalf("bounds of %s differ", r.Name())
		}
	}
	if !reflect.DeepEqual(om.Infos, sys.ClassifyIstio(nil, istio, nil, AllSoft())) {
		t.Fatal("BindIstioFree classifies differently from ClassifyIstio")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	sys := fig1System(t)
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		k8s, istio, exposure := randomConfigs(rng, sys)
		inst := sys.InstanceFor(k8s, istio, exposure)
		gotK := sys.DecodeK8s(inst)
		gotI := sys.DecodeIstio(inst)
		gotE := sys.DecodeExposure(inst)
		for i, p := range k8s.Policies {
			if !sameIntSet(p.IngressDenyPorts, gotK.Policies[i].IngressDenyPorts) ||
				!sameIntSet(p.IngressAllowPorts, gotK.Policies[i].IngressAllowPorts) ||
				!sameIntSet(p.EgressDenyPorts, gotK.Policies[i].EgressDenyPorts) ||
				!sameIntSet(p.EgressAllowPorts, gotK.Policies[i].EgressAllowPorts) {
				t.Fatalf("iter %d: k8s policy %s round trip failed", iter, p.Name)
			}
		}
		for i, p := range istio.Policies {
			if !sameIntSet(p.DenyToPorts, gotI.Policies[i].DenyToPorts) ||
				!sameIntSet(p.AllowToPorts, gotI.Policies[i].AllowToPorts) ||
				!sameStrSet(p.DenyFromServices, gotI.Policies[i].DenyFromServices) ||
				!sameStrSet(p.AllowFromServices, gotI.Policies[i].AllowFromServices) {
				t.Fatalf("iter %d: istio policy %s round trip failed", iter, p.Name)
			}
		}
		for name, ports := range exposure {
			if !sameIntSet(ports, gotE[name]) {
				t.Fatalf("iter %d: exposure of %s: %v vs %v", iter, name, ports, gotE[name])
			}
		}
	}
}

func TestCompileErrors(t *testing.T) {
	sys := fig1System(t)
	if _, err := sys.CompileK8sGoal(goals.K8sGoal{Port: 9999}); err == nil {
		t.Fatal("out-of-inventory port must error")
	}
	if _, err := sys.CompileIstioGoals([]goals.IstioGoal{
		{Src: "ghost", Dst: "test-db", SrcPort: goals.AnyPort(), DstPort: goals.LitPort(23), Allow: true},
	}); err == nil {
		t.Fatal("unknown service must error")
	}
	if _, err := sys.CompileIstioGoals([]goals.IstioGoal{
		{Src: "test-db", Dst: "test-backend", SrcPort: goals.AnyPort(), DstPort: goals.LitPort(9999), Allow: true},
	}); err == nil {
		t.Fatal("out-of-inventory dst port must error")
	}
}

func TestIstioDenyGoalWildcardPort(t *testing.T) {
	// DENY with `*` dstPort must mean "blocked on every port".
	sys := fig1System(t)
	f, err := sys.CompileIstioGoals([]goals.IstioGoal{
		{Src: "test-frontend", Dst: "test-db", SrcPort: goals.AnyPort(), DstPort: goals.AnyPort(), Allow: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A config where frontend→db is open on 16000 must violate the goal.
	_, istio := fig1Configs(t)
	istioOpen := mesh.CloneIstio(istio)
	istioOpen.Policy("db-policy").AllowFromServices = []string{"test-backend", "test-frontend"}
	inst := sys.InstanceFor(&mesh.K8sConfig{}, istioOpen, nil)
	if relational.Eval(f, inst) {
		t.Fatal("open frontend→db must violate the wildcard DENY goal")
	}
	// The current (closed) config satisfies it.
	inst = sys.InstanceFor(&mesh.K8sConfig{}, istio, nil)
	if !relational.Eval(f, inst) {
		t.Fatal("closed frontend→db must satisfy the wildcard DENY goal")
	}
}

func TestK8sAllowGoal(t *testing.T) {
	sys := fig1System(t)
	f, err := sys.CompileK8sGoal(goals.K8sGoal{Port: 16000, Allow: true, Selector: map[string]string{"app": "db"}})
	if err != nil {
		t.Fatal(err)
	}
	_, istio := fig1Configs(t)
	// db only admits backend → ALLOW goal for everyone fails.
	inst := sys.InstanceFor(&mesh.K8sConfig{}, istio, nil)
	if relational.Eval(f, inst) {
		t.Fatal("restricted db ingress must violate the ALLOW-to-db goal")
	}
	// Fully open: satisfied.
	inst = sys.InstanceFor(&mesh.K8sConfig{}, &mesh.IstioConfig{}, nil)
	if !relational.Eval(f, inst) {
		t.Fatal("open mesh must satisfy the ALLOW-to-db goal")
	}
}

func TestSharedVariableAcrossRows(t *testing.T) {
	// Two rows sharing ?p must use the same port; requiring both
	// backend:25 reachability and db-port reachability through one shared
	// variable is unsatisfiable because db does not listen on any backend
	// port and exposure for db under AllHoles can be chosen — so instead
	// pin exposure by fixing it, then check shared-variable coupling.
	sys := fig1System(t)
	gs := []goals.IstioGoal{
		{Src: "test-frontend", Dst: "test-backend", SrcPort: goals.AnyPort(), DstPort: goals.VarPort("p"), Allow: true},
		{Src: "test-db", Dst: "test-backend", SrcPort: goals.AnyPort(), DstPort: goals.VarPort("p"), Allow: true},
	}
	f, err := sys.CompileIstioGoals(gs)
	if err != nil {
		t.Fatal(err)
	}
	// Concrete check: a config admitting frontend→backend:25 and
	// db→backend:12000 but no common port fails the shared-var goal.
	istio := &mesh.IstioConfig{Policies: []*mesh.AuthorizationPolicy{
		{Name: "backend-policy", Target: map[string]string{"app": "backend"}},
	}}
	k8s := &mesh.K8sConfig{Policies: []*mesh.NetworkPolicy{{
		Name:     "cluster-default",
		Selector: nil,
		// frontend may only reach 25; db may only reach 12000 — no shared port.
	}}}
	sysShells, err := NewSystem(sys.Mesh, []*mesh.NetworkPolicy{
		{Name: "fe-eg", Selector: map[string]string{"app": "frontend"}},
		{Name: "db-eg", Selector: map[string]string{"app": "db"}},
	}, istio.Policies, sys.PortList)
	if err != nil {
		t.Fatal(err)
	}
	f, err = sysShells.CompileIstioGoals(gs)
	if err != nil {
		t.Fatal(err)
	}
	k8s = &mesh.K8sConfig{Policies: []*mesh.NetworkPolicy{
		{Name: "fe-eg", Selector: map[string]string{"app": "frontend"}, EgressAllowPorts: []int{25}},
		{Name: "db-eg", Selector: map[string]string{"app": "db"}, EgressAllowPorts: []int{12000}},
	}}
	inst := sysShells.InstanceFor(k8s, istio, nil)
	if relational.Eval(f, inst) {
		t.Fatal("no shared port exists; shared-variable goal must fail")
	}
	// Allow both to reach 25 → shared port exists.
	k8s.Policies[1].EgressAllowPorts = []int{25, 12000}
	inst = sysShells.InstanceFor(k8s, istio, nil)
	if !relational.Eval(f, inst) {
		t.Fatal("port 25 is shared; goal must hold")
	}
}

func sameIntSet(a, b []int) bool {
	ma := make(map[int]bool)
	for _, x := range a {
		ma[x] = true
	}
	mb := make(map[int]bool)
	for _, x := range b {
		mb[x] = true
	}
	return reflect.DeepEqual(ma, mb)
}

func sameStrSet(a, b []string) bool {
	ma := make(map[string]bool)
	for _, x := range a {
		ma[x] = true
	}
	mb := make(map[string]bool)
	for _, x := range b {
		mb[x] = true
	}
	return reflect.DeepEqual(ma, mb)
}

func BenchmarkCompileAndSolveFig1(b *testing.B) {
	sys := fig1System(b)
	k8sGoals, _ := goals.LoadK8sGoals("../../testdata/fig1/k8s_goals.csv")
	revised, _ := goals.LoadIstioGoals("../../testdata/fig1/istio_goals_revised.csv")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fk, _ := sys.CompileK8sGoals(k8sGoals)
		fi, _ := sys.CompileIstioGoals(revised)
		bounds := sys.NewBounds()
		sys.BindK8s(bounds, &mesh.K8sConfig{}, AllHoles())
		sys.BindIstio(bounds, &mesh.IstioConfig{}, AllHoles())
		_, st := relational.Solve(relational.Problem{Bounds: bounds, Formula: relational.And(fk, fi)})
		if st != sat.Sat {
			b.Fatal("expected SAT")
		}
	}
}
