package ucore

import (
	"context"
	"math/rand"
	"testing"

	"muppet/internal/sat"
)

// selector adds clause (¬sel ∨ lits...) and returns sel: assuming sel
// enforces the clause.
func selector(s *sat.Solver, lits ...sat.Lit) sat.Lit {
	sel := sat.PosLit(s.NewVar())
	c := append([]sat.Lit{sel.Not()}, lits...)
	s.AddClause(c...)
	return sel
}

func TestFindSatisfiableReturnsNil(t *testing.T) {
	s := sat.New()
	a := s.NewVar()
	n1 := Named{Name: "a", Lit: selector(s, sat.PosLit(a))}
	if core := FindCtx(context.Background(), sat.Budget{}, s, []Named{n1}); core != nil {
		t.Fatalf("want nil core, got %v", core)
	}
}

func TestFindSimpleCore(t *testing.T) {
	s := sat.New()
	a, b := s.NewVar(), s.NewVar()
	posA := Named{Name: "a must hold", Lit: selector(s, sat.PosLit(a))}
	negA := Named{Name: "a must not hold", Lit: selector(s, sat.NegLit(a))}
	posB := Named{Name: "b must hold", Lit: selector(s, sat.PosLit(b))}
	core := FindCtx(context.Background(), sat.Budget{}, s, []Named{posA, negA, posB})
	if len(core) != 2 {
		t.Fatalf("core size %d, want 2: %v", len(core), core)
	}
	names := map[string]bool{}
	for _, n := range core {
		names[n.Name] = true
	}
	if !names["a must hold"] || !names["a must not hold"] || names["b must hold"] {
		t.Fatalf("wrong core %v", core)
	}
}

func TestFindMinimality(t *testing.T) {
	// Chain: x1, x1→x2, x2→x3, ¬x3, plus irrelevant constraints.
	s := sat.New()
	x1, x2, x3, y := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	named := []Named{
		{Name: "x1", Lit: selector(s, sat.PosLit(x1))},
		{Name: "x1->x2", Lit: selector(s, sat.NegLit(x1), sat.PosLit(x2))},
		{Name: "x2->x3", Lit: selector(s, sat.NegLit(x2), sat.PosLit(x3))},
		{Name: "!x3", Lit: selector(s, sat.NegLit(x3))},
		{Name: "y", Lit: selector(s, sat.PosLit(y))},
		{Name: "y2", Lit: selector(s, sat.PosLit(y))},
	}
	core := FindCtx(context.Background(), sat.Budget{}, s, named)
	if len(core) != 4 {
		t.Fatalf("core %v, want the 4-element chain", core)
	}
	for _, n := range core {
		if n.Name == "y" || n.Name == "y2" {
			t.Fatalf("irrelevant constraint %s in core", n.Name)
		}
	}
}

func TestFindHardUnsat(t *testing.T) {
	s := sat.New()
	a := s.NewVar()
	n1 := Named{Name: "n1", Lit: selector(s, sat.PosLit(a))}
	s.AddClause(sat.PosLit(a))
	s.AddClause(sat.NegLit(a))
	core := FindCtx(context.Background(), sat.Budget{}, s, []Named{n1})
	if core == nil || len(core) != 0 {
		t.Fatalf("hard-unsat should give empty non-nil core, got %v", core)
	}
}

func TestFindEachElementNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		s := sat.New()
		n := 3 + rng.Intn(5)
		vars := make([]sat.Var, n)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		var named []Named
		for i := 0; i < 4+rng.Intn(10); i++ {
			c := make([]sat.Lit, 1+rng.Intn(2))
			for j := range c {
				c[j] = sat.MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0)
			}
			named = append(named, Named{
				Name: string(rune('A' + i)),
				Lit:  selector(s, c...),
			})
		}
		core := FindCtx(context.Background(), sat.Budget{}, s, named)
		if core == nil {
			continue
		}
		// Core must be unsat…
		lits := make([]sat.Lit, len(core))
		for i, nmd := range core {
			lits[i] = nmd.Lit
		}
		if s.Solve(lits...) != sat.Unsat {
			t.Fatalf("iter %d: core %v not unsat", iter, core)
		}
		// …and every element necessary.
		for drop := range core {
			trial := make([]sat.Lit, 0, len(core)-1)
			for i, nmd := range core {
				if i != drop {
					trial = append(trial, nmd.Lit)
				}
			}
			if s.Solve(trial...) != sat.Sat {
				t.Fatalf("iter %d: dropping %s should restore SAT", iter, core[drop].Name)
			}
		}
	}
}

func TestDuplicateLitsShareNames(t *testing.T) {
	s := sat.New()
	a := s.NewVar()
	sel := selector(s, sat.PosLit(a))
	named := []Named{
		{Name: "first", Lit: sel},
		{Name: "second", Lit: sel},
		{Name: "contra", Lit: selector(s, sat.NegLit(a))},
	}
	core := FindCtx(context.Background(), sat.Budget{}, s, named)
	if core == nil {
		t.Fatal("expected a core")
	}
	names := map[string]bool{}
	for _, n := range core {
		names[n.Name] = true
	}
	if !names["contra"] || (!names["first"] && !names["second"]) {
		t.Fatalf("core %v should blame contra plus the shared selector", core)
	}
}
