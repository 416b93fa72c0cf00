package scenario

import (
	"reflect"
	"testing"

	"muppet/internal/encode"
	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/muppet"
)

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Services: 4, PortsPerService: 2, Flows: 5, BannedPorts: 2, Seed: 7}
	a := Generate(p)
	if len(a.Mesh.Services) != 4 || len(a.IstioStrict) != 5 {
		t.Fatalf("sizes: %d services, %d flows", len(a.Mesh.Services), len(a.IstioStrict))
	}
	if len(a.K8sGoals) == 0 || len(a.K8sGoals) > 2 {
		t.Fatalf("banned ports: %v", a.K8sGoals)
	}
	// Each map walk starts at a random position, so regenerating many
	// seeds in one process exposes any output that depends on one.
	for seed := int64(1); seed <= 50; seed++ {
		p := Params{Services: 4, PortsPerService: 2, Flows: 5, BannedPorts: 3, Seed: seed}
		want := Generate(p)
		for i := 0; i < 20; i++ {
			if got := Generate(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: regeneration %d differs: bans %v, first %v", seed, i, got.K8sGoals, want.K8sGoals)
			}
		}
	}
}

func TestScenarioHasConflictAndResolution(t *testing.T) {
	sc := Generate(Params{Services: 4, PortsPerService: 2, Flows: 4, BannedPorts: 1, Seed: 3})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}

	k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, encode.AllSoft(), sc.K8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	strictParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, encode.AllSoft(), sc.IstioStrict)
	if err != nil {
		t.Fatal(err)
	}
	if res := muppet.Reconcile(sys, []*muppet.Party{k8sParty, strictParty}); res.OK {
		t.Fatal("strict goals must conflict with the bans")
	}

	relaxedParty, relaxedState, err := muppet.NewIstioParty(sys, sc.IstioCurrent, encode.AllSoft(), sc.IstioRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	res := muppet.Reconcile(sys, []*muppet.Party{k8sParty, relaxedParty})
	if !res.OK {
		t.Fatalf("relaxed goals must reconcile: %v", res.Feedback)
	}
	// Verify the synthesized system with the runtime evaluator.
	k8sParty.Adopt(res.Instance)
	relaxedParty.Adopt(res.Instance)
	k8sFinal := sys.DecodeK8s(res.Instance)
	m2 := sys.MeshWith(relaxedState.Exposure)
	reach := mesh.ReachabilityMatrix(m2, k8sFinal, relaxedState.Config)
	for _, g := range sc.K8sGoals {
		for pair, ports := range reach {
			for _, p := range ports {
				if p == g.Port {
					t.Fatalf("banned port %d reachable on %s", g.Port, pair)
				}
			}
		}
	}
	for _, g := range sc.IstioRelaxed {
		if g.DstPort.Kind == goals.PortLit {
			pair := g.Src + "->" + g.Dst
			found := false
			for _, p := range reach[pair] {
				if p == g.DstPort.Port {
					found = true
				}
			}
			if !found {
				t.Fatalf("fixed flow %v not admitted (reach %v)", g, reach[pair])
			}
		}
	}
}

func TestScenarioScalesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Generate(Params{Services: 12, PortsPerService: 2, Flows: 12, BannedPorts: 2, Seed: 1})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, encode.AllSoft(), sc.K8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	relaxedParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, encode.AllSoft(), sc.IstioRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	res := muppet.Reconcile(sys, []*muppet.Party{k8sParty, relaxedParty})
	if !res.OK {
		t.Fatalf("12-service scenario must reconcile: %v", res.Feedback)
	}
}
