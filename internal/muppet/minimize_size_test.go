package muppet

import (
	"context"
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
}
