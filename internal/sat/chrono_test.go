package sat

import (
	"math/rand"
	"testing"
)

// paddedInstance builds the shape of muppet's selector-heavy solves: a
// random 3-SAT core over nCore variables whose every clause carries one of
// nGuards guard literals, and an assumption list that first assumes every
// guard false and then pads the trail with free assumed variables, up to
// nAssumps decision levels in all. Learnt clauses mix core literals
// decided above the padding with guard literals from the first levels, so
// a conflict that learns a core unit backjumps past the whole padding:
// the long backjump chronological backtracking replaces with one level.
//
// Variables 0..nGuards-1 are the guards, nGuards..nAssumps-1 the padding,
// and the core follows.
func paddedInstance(rng *rand.Rand, nCore, nGuards, nAssumps int) (int, [][]Lit, []Lit) {
	clauses := random3SAT(rng, nCore, nCore*426/100)
	for i, c := range clauses {
		for j, l := range c {
			c[j] = MkLit(l.Var()+Var(nAssumps), l.Neg())
		}
		clauses[i] = append(c, PosLit(Var(i%nGuards)))
	}
	assumps := make([]Lit, nAssumps)
	for v := range assumps {
		if v < nGuards {
			assumps[v] = NegLit(Var(v))
		} else {
			assumps[v] = MkLit(Var(v), rng.Intn(2) == 0)
		}
	}
	return nAssumps + nCore, clauses, assumps
}

// TestChronoMatchesBackjumping makes chronological backtracking fire and
// checks it against full backjumping (DisableChrono) on the same
// instances: verdicts must agree, every model must satisfy every clause
// and assumption, and every failed-assumption core must itself be UNSAT.
func TestChronoMatchesBackjumping(t *testing.T) {
	var chrono int64
	for seed := int64(1); seed <= 6; seed++ {
		nVars, clauses, assumps := paddedInstance(rand.New(rand.NewSource(seed)), 50, 5, 150)
		on := newSolverWith(nVars, clauses, Options{})
		off := newSolverWith(nVars, clauses, Options{DisableChrono: true})
		got, want := on.Solve(assumps...), off.Solve(assumps...)
		if got != want {
			t.Fatalf("seed %d: chrono %v, backjumping %v", seed, got, want)
		}
		if n := off.Stats.ChronoBacktracks; n != 0 {
			t.Fatalf("seed %d: DisableChrono still backtracked chronologically %d times", seed, n)
		}
		chrono += on.Stats.ChronoBacktracks
		t.Logf("seed %d: %v, %d conflicts, %d chrono backtracks", seed, got, on.Stats.Conflicts, on.Stats.ChronoBacktracks)
		for _, s := range []*Solver{on, off} {
			switch got {
			case Sat:
				m := s.Model()
				if !modelSatisfies(m, clauses) {
					t.Fatalf("seed %d: model does not satisfy the clauses", seed)
				}
				for _, a := range assumps {
					if m[a.Var()] == a.Neg() {
						t.Fatalf("seed %d: model violates assumption %v", seed, a)
					}
				}
			case Unsat:
				core := s.Core()
				if st := newSolverWith(nVars, clauses, Options{}).Solve(core...); st != Unsat {
					t.Fatalf("seed %d: core %v re-solves %v, want UNSAT", seed, core, st)
				}
			}
		}
	}
	if chrono == 0 {
		t.Fatal("chronological backtracking never fired")
	}
}
