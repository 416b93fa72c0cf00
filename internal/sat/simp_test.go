package sat

import (
	"math/rand"
	"testing"
)

// randomClauses builds a random CNF over nVars variables of the solver s
// (which must already own them).
func randomClauses(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	var out [][]Lit
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		seen := map[Var]bool{}
		var c []Lit
		for len(c) < width {
			v := Var(rng.Intn(nVars))
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

func satisfies(clauses [][]Lit, model []bool) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if model[l.Var()] != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestSimpMatchesNoSimpVerdicts is the solver-level equivalence check:
// over random formulas, preprocessing changes neither the verdict nor the
// validity of the returned model.
func TestSimpMatchesNoSimpVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(8)
		clauses := randomClauses(rng, nVars, 3+rng.Intn(30))
		run := func(disable bool) (Status, []bool) {
			s := NewWithOptions(Options{DisableSimp: disable, SimpMinClauses: -1})
			for i := 0; i < nVars; i++ {
				s.NewVar()
			}
			for _, c := range clauses {
				if !s.AddClause(c...) {
					return Unsat, nil
				}
			}
			st := s.Solve()
			if st == Sat {
				return st, s.Model()
			}
			return st, nil
		}
		stOn, mOn := run(false)
		stOff, _ := run(true)
		if stOn != stOff {
			t.Fatalf("iter %d: simp verdict %v, plain verdict %v\n%v", iter, stOn, stOff, clauses)
		}
		if stOn == Sat && !satisfies(clauses, mOn) {
			t.Fatalf("iter %d: extended model does not satisfy the formula\n%v", iter, clauses)
		}
	}
}

// TestSimpIncrementalAddRestores checks that adding a clause over an
// eliminated variable restores it and keeps verdicts exact.
func TestSimpIncrementalAddRestores(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.Freeze(a)
	// b is a definition variable between a and c; with only a frozen, b
	// and c are elimination candidates.
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	if !s.Eliminated(b) && !s.Eliminated(c) {
		t.Fatal("expected at least one of b, c to be eliminated")
	}
	// A new clause forcing ¬c and then a: propagation must see a → b → c
	// again, so the chain must be restored.
	s.AddClause(NegLit(c))
	s.AddClause(PosLit(a))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("want unsat after restoring chain, got %v", st)
	}
}

// TestSimpFrozenAssumptionsSurvive checks that variables only ever used
// as assumptions keep working: Solve freezes them on the fly.
func TestSimpFrozenAssumptionsSurvive(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	sel, x := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(sel), PosLit(x))
	s.AddClause(NegLit(sel), NegLit(x))
	if st := s.Solve(); st != Sat {
		t.Fatalf("unconstrained solve: want sat, got %v", st)
	}
	if st := s.Solve(PosLit(sel)); st != Unsat {
		t.Fatalf("assuming sel: want unsat, got %v", st)
	}
	core := s.Core()
	if len(core) != 1 || core[0] != PosLit(sel) {
		t.Fatalf("core = %v, want [sel]", core)
	}
}

// TestSimpAssumedEliminatedVarIsWatched: assuming a variable that
// preprocessing eliminated restores its clauses during Solve, and those
// clauses must be watched in the search that follows. With a and d
// frozen, the first solve eliminates b and c; assuming b and ¬d then
// contradicts the chain a→b→c→d only through the restored clauses.
func TestSimpAssumedEliminatedVarIsWatched(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.Freeze(a)
	s.Freeze(d)
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))
	s.AddClause(NegLit(c), PosLit(d))
	if st := s.Solve(); st != Sat {
		t.Fatalf("first solve: want sat, got %v", st)
	}
	if !s.Eliminated(b) || !s.Eliminated(c) {
		t.Fatalf("the first solve must eliminate b and c (b %v, c %v)", s.Eliminated(b), s.Eliminated(c))
	}
	if st := s.Solve(PosLit(b), NegLit(d)); st != Unsat {
		t.Fatalf("assuming b and ¬d: want unsat, got %v with model %v", st, s.Model())
	}
}

// TestSimpStatsReported checks the counters surface.
func TestSimpStatsReported(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	vs := make([]Var, 8)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	// A chain of definitions: plenty to eliminate.
	for i := 0; i+1 < len(vs); i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	if s.Stats.SimpRuns == 0 {
		t.Fatal("expected a preprocessing run")
	}
	if s.Stats.SimpVarsEliminated == 0 {
		t.Fatal("expected eliminated variables")
	}
	// Freezing an eliminated variable restores it, and with it whatever
	// its recorded clauses name; the counter must follow the restores.
	for _, v := range vs {
		if s.Eliminated(v) {
			s.Freeze(v)
			break
		}
	}
	live := 0
	for _, v := range vs {
		if s.Eliminated(v) {
			live++
		}
	}
	if s.Stats.SimpRestored == 0 || s.Stats.SimpVarsEliminated != int64(live) {
		t.Fatalf("after a restore: SimpVarsEliminated = %d, SimpRestored = %d; %d variables are eliminated",
			s.Stats.SimpVarsEliminated, s.Stats.SimpRestored, live)
	}
}

// TestSimpRerunNeedsUnfrozenGrowth pins the re-run trigger: after the
// first pass, only clauses that name an unfrozen variable count toward
// the growth that runs preprocessing again. Clauses over frozen variables
// alone, like a distance counter's, are in no elimination candidate's
// occurrence lists, so however many arrive they trigger nothing.
func TestSimpRerunNeedsUnfrozenGrowth(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	const nFrozen = 40
	fr := make([]Var, nFrozen)
	for i := range fr {
		fr[i] = s.NewVar()
		s.Freeze(fr[i])
	}
	// A first batch with something to eliminate: one unfrozen definition
	// variable between each pair of neighbouring frozen variables.
	for i := 0; i+1 < nFrozen; i++ {
		y := s.NewVar()
		s.AddClause(NegLit(fr[i]), PosLit(y))
		s.AddClause(NegLit(y), PosLit(fr[i+1]))
	}
	if st := s.Solve(); st != Sat || s.Stats.SimpRuns != 1 {
		t.Fatalf("first solve: %v after %d preprocessing runs, want SAT after 1", st, s.Stats.SimpRuns)
	}
	const batch = 300 // above simpMinGrowth's floor of 256
	if batch < simpMinGrowth(s.simpWatermark) {
		t.Fatalf("a batch of %d does not reach the growth threshold %d", batch, simpMinGrowth(s.simpWatermark))
	}
	// Each clause is implied by the chain, so none forces a level-0 fact
	// that would satisfy the next batch's clauses before they are stored.
	for i := 0; i < batch; i++ {
		a, b := i%nFrozen, (i%nFrozen+1+i/nFrozen)%nFrozen
		s.AddClause(NegLit(fr[min(a, b)]), PosLit(fr[max(a, b)]))
	}
	if st := s.Solve(); st != Sat || s.Stats.SimpRuns != 1 {
		t.Fatalf("after %d frozen-only clauses: %v after %d preprocessing runs, want SAT after 1",
			batch, st, s.Stats.SimpRuns)
	}
	for i := 0; i < batch; i++ {
		x := s.NewVar()
		s.AddClause(NegLit(x), PosLit(fr[i%nFrozen]))
	}
	if st := s.Solve(); st != Sat || s.Stats.SimpRuns != 2 {
		t.Fatalf("after %d clauses naming fresh variables: %v after %d preprocessing runs, want SAT after 2",
			batch, st, s.Stats.SimpRuns)
	}
}
