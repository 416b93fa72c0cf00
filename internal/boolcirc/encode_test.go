package boolcirc

import (
	"math/rand"
	"testing"

	"muppet/internal/sat"
)

// assertOnlyCircuit builds a deep conjunction of disjunctions — the shape
// envelope/feedback assertions take — used positively only.
func assertOnlyCircuit(f *Factory, nVars int) Ref {
	vars := make([]Ref, nVars)
	for i := range vars {
		vars[i] = f.Var()
	}
	acc := True
	for i := 0; i+2 < nVars; i++ {
		acc = f.And(acc, f.Or(vars[i], vars[i+1].Not(), vars[i+2]))
	}
	return acc
}

// TestPolarityEmitsFewerClauses: an assert-only cone needs one implication
// direction per gate; the full biconditional is strictly larger.
func TestPolarityEmitsFewerClauses(t *testing.T) {
	count := func(opts CNFOptions) int {
		f := New()
		root := assertOnlyCircuit(f, 24)
		s := sat.NewWithOptions(sat.Options{DisableSimp: true})
		NewCNFWithOptions(f, s, opts).Assert(root)
		return s.NumClauses()
	}
	pol := count(CNFOptions{})
	full := count(CNFOptions{NoPolarity: true})
	if pol >= full {
		t.Fatalf("polarity-aware emitted %d clauses, full biconditional %d", pol, full)
	}
}

// TestLazyPolarityUpgrade: a gate first reached through one polarity must
// gain the other direction when LitFor later demands equivalence.
func TestLazyPolarityUpgrade(t *testing.T) {
	f := New()
	x, y, z := f.Var(), f.Var(), f.Var()
	g := f.And(x, y)
	s := sat.New()
	cnf := NewCNF(f, s)
	// g → z uses g negatively: only cone→var is emitted for g here.
	cnf.Assert(f.Implies(g, z))
	// LitFor upgrades g to a full biconditional: assuming the literal must
	// now force the cone's inputs.
	lg := cnf.LitFor(g)
	if s.Solve(lg) != sat.Sat {
		t.Fatal("assuming g should be satisfiable")
	}
	if !s.Value(cnf.SolverVar(f.VarID(x))) || !s.Value(cnf.SolverVar(f.VarID(y))) {
		t.Fatal("assuming g must force x and y true (missing var→cone direction)")
	}
	if s.Solve(lg.Not(), cnf.LitFor(x), cnf.LitFor(y)) != sat.Unsat {
		t.Fatal("¬g with x∧y must be unsatisfiable (missing cone→var direction)")
	}
}

// TestAssertFalseMemoised: repeated Assert(False) reuses the constant
// node's variable instead of minting fresh pairs.
func TestAssertFalseMemoised(t *testing.T) {
	f := New()
	s := sat.New()
	cnf := NewCNF(f, s)
	cnf.Assert(False)
	n := s.NumVars()
	cnf.Assert(False)
	cnf.Assert(False)
	if s.NumVars() != n {
		t.Fatalf("Assert(False) allocated variables: %d -> %d", n, s.NumVars())
	}
	if s.Solve() != sat.Unsat {
		t.Fatal("want unsat")
	}
}

// TestEncodingOptionsAgree: every combination of polarity/simp
// reaches the same verdict, and Sat models satisfy the circuit.
func TestEncodingOptionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	combos := []struct {
		cnf  CNFOptions
		simp bool
	}{
		{CNFOptions{}, false},
		{CNFOptions{}, true},
		{CNFOptions{NoPolarity: true}, false},
		{CNFOptions{NoPolarity: true}, true}, // the seed encoding
	}
	for iter := 0; iter < 150; iter++ {
		nVars := 2 + rng.Intn(6)
		seed := rng.Int63()
		var want sat.Status
		for ci, combo := range combos {
			f := New()
			root := randomCircuit(rand.New(rand.NewSource(seed)), f, nVars, 5)
			s := sat.NewWithOptions(sat.Options{DisableSimp: combo.simp})
			cnf := NewCNFWithOptions(f, s, combo.cnf)
			cnf.Assert(root)
			got := s.Solve()
			if ci == 0 {
				want = got
			} else if got != want {
				t.Fatalf("iter %d combo %d: verdict %v, want %v", iter, ci, got, want)
			}
			if got == sat.Sat && !f.Eval(root, cnf.VarValue) {
				t.Fatalf("iter %d combo %d: model does not satisfy circuit", iter, ci)
			}
		}
	}
}

// BenchmarkEval measures repeated evaluation over one large shared
// circuit — the dense slice memo is what this exercises.
func BenchmarkEval(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	f := New()
	root := randomCircuit(rng, f, 24, 14)
	vals := make([]bool, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range vals {
			vals[j] = (i>>uint(j%16))&1 == 1
		}
		f.Eval(root, func(id int) bool { return vals[id] })
	}
}
