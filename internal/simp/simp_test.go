package simp

import (
	"math/rand"
	"reflect"
	"testing"
)

// evalClauses reports whether the assignment (indexed by var) satisfies
// every clause.
func evalClauses(clauses [][]Lit, assign []bool) bool {
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			if assign[l.Var()] != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// bruteSat searches all assignments over nVars variables for a model of
// clauses ∧ units; returns (model, true) or (nil, false).
func bruteSat(clauses [][]Lit, units []Lit, nVars int) ([]bool, bool) {
	all := append([][]Lit{}, clauses...)
	for _, u := range units {
		all = append(all, []Lit{u})
	}
	assign := make([]bool, nVars)
	for m := 0; m < 1<<nVars; m++ {
		for v := 0; v < nVars; v++ {
			assign[v] = m&(1<<v) != 0
		}
		if evalClauses(all, assign) {
			out := make([]bool, nVars)
			copy(out, assign)
			return out, true
		}
	}
	return nil, false
}

func lit(v int, neg bool) Lit { return MkLit(int32(v), neg) }

func TestSubsumptionRemovesSuperset(t *testing.T) {
	p := New()
	res := p.Run([][]Lit{
		{lit(0, false), lit(1, false)},
		{lit(0, false), lit(1, false), lit(2, false)},
	}, nil)
	if res.Unsat {
		t.Fatal("unexpected unsat")
	}
	// With nothing frozen both vars 0/1 are eliminable, so freeze to
	// observe pure subsumption.
	p2 := New()
	for v := int32(0); v < 3; v++ {
		p2.Freeze(v)
	}
	res = p2.Run([][]Lit{
		{lit(0, false), lit(1, false)},
		{lit(0, false), lit(1, false), lit(2, false)},
	}, nil)
	if len(res.Clauses) != 1 || len(res.Clauses[0]) != 2 {
		t.Fatalf("want the subsumed clause removed, got %v", res.Clauses)
	}
	if p2.Stats.ClausesSubsumed != 1 {
		t.Fatalf("subsumed stat = %d, want 1", p2.Stats.ClausesSubsumed)
	}
}

func TestSelfSubsumingResolutionStrengthens(t *testing.T) {
	p := New()
	for v := int32(0); v < 3; v++ {
		p.Freeze(v)
	}
	// (a ∨ b) self-subsumes (¬a ∨ b ∨ c) to (b ∨ c), which (a ∨ b) does
	// not subsume; expect both clauses, the second strengthened.
	res := p.Run([][]Lit{
		{lit(0, false), lit(1, false)},
		{lit(0, true), lit(1, false), lit(2, false)},
	}, nil)
	if res.Unsat {
		t.Fatal("unexpected unsat")
	}
	if p.Stats.LitsStrengthened != 1 {
		t.Fatalf("strengthened stat = %d, want 1", p.Stats.LitsStrengthened)
	}
	for _, c := range res.Clauses {
		for _, l := range c {
			if l == lit(0, true) {
				t.Fatalf("¬a survived strengthening: %v", res.Clauses)
			}
		}
	}
}

// TestUnitSparesClauseStrengthenedPastIt pins unit propagation against
// stale occurrence entries. (x1 ∨ ¬x5) strengthens (x0 ∨ x1 ∨ ¬x5) to
// (x0 ∨ x1), which keeps an entry in ¬x5's list; (¬x0 ∨ ¬x5) then turns
// (x0 ∨ ¬x5) into the unit ¬x5. That unit satisfies the clauses that
// still contain ¬x5, not (x0 ∨ x1). With every variable frozen the result
// must be equivalent to the input on every assignment.
func TestUnitSparesClauseStrengthenedPastIt(t *testing.T) {
	in := [][]Lit{
		{lit(0, false), lit(1, false), lit(5, false)},
		{lit(5, true), lit(1, false)},
		{lit(5, true), lit(0, false), lit(1, false)},
		{lit(0, true), lit(5, true)},
		{lit(5, true), lit(0, false)},
	}
	const nVars = 6
	p := New()
	for v := int32(0); v < nVars; v++ {
		p.Freeze(v)
	}
	res := p.Run(in, nil)
	if res.Unsat {
		t.Fatal("unexpected unsat")
	}
	out := append([][]Lit{}, res.Clauses...)
	for _, u := range res.Units {
		out = append(out, []Lit{u})
	}
	assign := make([]bool, nVars)
	for m := 0; m < 1<<nVars; m++ {
		for v := range assign {
			assign[v] = m&(1<<v) != 0
		}
		if evalClauses(in, assign) != evalClauses(out, assign) {
			t.Fatalf("assignment %v: input %v, simplified %v (clauses %v, units %v)",
				assign, evalClauses(in, assign), evalClauses(out, assign), res.Clauses, res.Units)
		}
	}
}

func TestFrozenVariablesSurvive(t *testing.T) {
	p := New()
	p.Freeze(0)
	res := p.Run([][]Lit{
		{lit(0, false), lit(1, false)},
		{lit(0, true), lit(1, true)},
	}, nil)
	if res.Unsat {
		t.Fatal("unexpected unsat")
	}
	if p.Eliminated(0) {
		t.Fatal("frozen variable was eliminated")
	}
	if !p.Eliminated(1) {
		t.Fatal("free variable 1 should have been eliminated")
	}
}

func TestPureLiteralElimination(t *testing.T) {
	p := New()
	p.Freeze(1)
	p.Freeze(2)
	// Var 0 occurs only positively: eliminating it produces no resolvents
	// and drops its clause.
	res := p.Run([][]Lit{
		{lit(0, false), lit(1, false)},
		{lit(1, false), lit(2, false)},
	}, nil)
	if !p.Eliminated(0) {
		t.Fatal("pure variable not eliminated")
	}
	if len(res.Clauses) != 1 {
		t.Fatalf("want 1 clause, got %v", res.Clauses)
	}
	// Extension must satisfy the recorded clause.
	model := []bool{false, false, false}
	p.Extend(model)
	if !evalClauses([][]Lit{{lit(0, false), lit(1, false)}}, model) {
		t.Fatalf("extended model %v violates recorded clause", model)
	}
}

func TestUnsatThroughStrengthening(t *testing.T) {
	p := New()
	for v := int32(0); v < 2; v++ {
		p.Freeze(v)
	}
	res := p.Run([][]Lit{
		{lit(0, false)},
		{lit(0, true)},
	}, nil)
	if !res.Unsat {
		t.Fatal("want unsat from contradictory units")
	}
}

func TestRestoreReturnsClausesAndReactivates(t *testing.T) {
	p := New()
	p.Freeze(1)
	orig := [][]Lit{
		{lit(0, false), lit(1, false)},
		{lit(0, true), lit(1, true)},
	}
	p.Run(orig, nil)
	if !p.Eliminated(0) {
		t.Fatal("var 0 should be eliminated")
	}
	back := p.Restore(0)
	if len(back) != 2 {
		t.Fatalf("restore returned %d clauses, want 2", len(back))
	}
	if p.Eliminated(0) {
		t.Fatal("var 0 still eliminated after restore")
	}
	if p.Restore(0) != nil {
		t.Fatal("second restore should return nil")
	}
	// Extend must now leave var 0 alone (dead record).
	model := []bool{true, true}
	p.Extend(model)
	if !model[0] {
		t.Fatal("Extend overwrote a restored variable")
	}
}

func TestDeterministicRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clauses := randomCNF(rng, 10, 30)
	frozen := []int32{0, 3, 7}
	run := func() ([][]Lit, []Lit, Stats) {
		p := New()
		for _, v := range frozen {
			p.Freeze(v)
		}
		r := p.Run(clauses, nil)
		return r.Clauses, r.Units, p.Stats
	}
	c1, u1, s1 := run()
	c2, u2, s2 := run()
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(u1, u2) || s1 != s2 {
		t.Fatal("two runs over the same input disagree")
	}
}

func randomCNF(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	var out [][]Lit
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		seen := map[int32]bool{}
		var c []Lit
		for len(c) < width {
			v := int32(rng.Intn(nVars))
			if seen[v] {
				continue
			}
			seen[v] = true
			c = append(c, MkLit(v, rng.Intn(2) == 0))
		}
		out = append(out, c)
	}
	return out
}

// TestRandomEquisatisfiableWithReconstruction is the core soundness
// property: preprocessing preserves satisfiability, and any model of the
// simplified formula extends (via the reconstruction stack) to a model of
// the original.
func TestRandomEquisatisfiableWithReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nVars = 9
	for iter := 0; iter < 500; iter++ {
		clauses := randomCNF(rng, nVars, 4+rng.Intn(28))
		p := New()
		p.EnsureVars(nVars)
		// Freeze a random subset so both frozen and free paths are hit.
		for v := int32(0); v < nVars; v++ {
			if rng.Intn(3) == 0 {
				p.Freeze(v)
			}
		}
		res := p.Run(clauses, nil)

		_, origSat := bruteSat(clauses, nil, nVars)
		if res.Unsat {
			if origSat {
				t.Fatalf("iter %d: simp says unsat, original is sat\n%v", iter, clauses)
			}
			continue
		}
		simpModel, simpSat := bruteSat(res.Clauses, res.Units, nVars)
		if simpSat != origSat {
			t.Fatalf("iter %d: simplified sat=%v, original sat=%v\n%v", iter, simpSat, origSat, clauses)
		}
		if !simpSat {
			continue
		}
		p.Extend(simpModel)
		if !evalClauses(clauses, simpModel) {
			t.Fatalf("iter %d: extended model %v violates original\n%v", iter, simpModel, clauses)
		}
	}
}

// TestRandomAbortStillSound checks that aborting mid-run yields a valid
// (partially simplified) database.
func TestRandomAbortStillSound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const nVars = 8
	for iter := 0; iter < 200; iter++ {
		clauses := randomCNF(rng, nVars, 4+rng.Intn(20))
		budget := rng.Intn(5)
		calls := 0
		p := New()
		p.EnsureVars(nVars)
		res := p.Run(clauses, func() bool {
			calls++
			return calls > budget
		})
		_, origSat := bruteSat(clauses, nil, nVars)
		if res.Unsat {
			if origSat {
				t.Fatalf("iter %d: aborted simp says unsat, original is sat", iter)
			}
			continue
		}
		simpModel, simpSat := bruteSat(res.Clauses, res.Units, nVars)
		if simpSat != origSat {
			t.Fatalf("iter %d: aborted simp sat=%v, original sat=%v", iter, simpSat, origSat)
		}
		if simpSat {
			p.Extend(simpModel)
			if !evalClauses(clauses, simpModel) {
				t.Fatalf("iter %d: extended model violates original", iter)
			}
		}
	}
}
