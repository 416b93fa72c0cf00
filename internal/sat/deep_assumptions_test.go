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
// a conflict that learns a core unit backjumps past the whole padding,
// which search then re-decides level by level, and a failed-assumption
// core is traced back through every padded level to the guards.
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

// TestDeepAssumptionsMatchDPLL checks CDCL under 150 assumed literals
// against the DisableLearning DPLL reference on the same instances:
// verdicts must agree, every model must satisfy every clause and
// assumption, and every failed-assumption core must itself be UNSAT.
func TestDeepAssumptionsMatchDPLL(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		nVars, clauses, assumps := paddedInstance(rand.New(rand.NewSource(seed)), 50, 5, 150)
		cdcl := newSolverWith(nVars, clauses, Options{})
		ref := newSolverWith(nVars, clauses, Options{DisableLearning: true})
		got, want := cdcl.Solve(assumps...), ref.Solve(assumps...)
		if got != want {
			t.Fatalf("seed %d: CDCL %v, DPLL reference %v", seed, got, want)
		}
		t.Logf("seed %d: %v, %d conflicts (reference: %d)", seed, got, cdcl.Stats.Conflicts, ref.Stats.Conflicts)
		for _, s := range []*Solver{cdcl, ref} {
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
}
