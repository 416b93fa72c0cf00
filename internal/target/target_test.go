package target

import (
	"math/rand"
	"testing"

	"muppet/internal/sat"
)

// instance is a raw CNF problem plus soft targets (and optional
// assumptions), kept as data so tests can brute-force it independently of
// the solver.
type instance struct {
	nVars   int
	clauses [][]sat.Lit
	soft    []sat.Lit
	assumps []sat.Lit // passed as Options.Assumptions; models must satisfy them
}

// solver materialises the instance into a fresh SAT solver.
func (in *instance) solver() *sat.Solver {
	s := sat.New()
	for i := 0; i < in.nVars; i++ {
		s.NewVar()
	}
	for _, c := range in.clauses {
		s.AddClause(c...)
	}
	return s
}

// eval returns the literal valuation of assignment m (bit i is variable
// i) and whether m satisfies every clause and assumption.
func (in *instance) eval(m int) (val func(sat.Lit) bool, ok bool) {
	val = func(l sat.Lit) bool {
		bit := m>>uint(l.Var())&1 == 1
		return bit != l.Neg()
	}
	for _, l := range in.assumps {
		if !val(l) {
			return val, false
		}
	}
	for _, c := range in.clauses {
		cv := false
		for _, l := range c {
			if val(l) {
				cv = true
				break
			}
		}
		if !cv {
			return val, false
		}
	}
	return val, true
}

// bruteForce enumerates every assignment and returns the minimal Hamming
// distance to the soft targets over satisfying assignments, or ok=false
// when the clause set (with the assumptions) is unsatisfiable.
func (in *instance) bruteForce() (best int, ok bool) {
	best = in.nVars + len(in.soft) + 1
	for m := 0; m < 1<<uint(in.nVars); m++ {
		val, satisfied := in.eval(m)
		if !satisfied {
			continue
		}
		ok = true
		d := 0
		for _, l := range in.soft {
			if !val(l) {
				d++
			}
		}
		if d < best {
			best = d
		}
	}
	return best, ok
}

// solveThenMinimize calls Minimize as the workflows do: right after a Sat
// solve under the run's assumptions, whose model is Minimize's first. A
// solve that is not Sat becomes the result's status, with no model.
func solveThenMinimize(s *sat.Solver, soft []sat.Lit, opts Options) Result {
	if st := s.Solve(opts.Assumptions...); st != sat.Sat {
		return Result{Status: st}
	}
	return Minimize(s, soft, opts)
}

func randomInstance(rng *rand.Rand) *instance {
	in := &instance{nVars: 3 + rng.Intn(9)} // 3..11 variables
	nClauses := rng.Intn(3 * in.nVars)
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		var c []sat.Lit
		for j := 0; j < width; j++ {
			c = append(c, sat.MkLit(sat.Var(rng.Intn(in.nVars)), rng.Intn(2) == 0))
		}
		in.clauses = append(in.clauses, c)
	}
	nSoft := 1 + rng.Intn(in.nVars)
	for i := 0; i < nSoft; i++ {
		in.soft = append(in.soft, sat.MkLit(sat.Var(rng.Intn(in.nVars)), rng.Intn(2) == 0))
	}
	return in
}

func checkModel(t *testing.T, in *instance, res Result) {
	t.Helper()
	for _, c := range in.clauses {
		cv := false
		for _, l := range c {
			if res.Model[l.Var()] != l.Neg() {
				cv = true
				break
			}
		}
		if !cv {
			t.Fatalf("returned model falsifies clause %v", c)
		}
	}
	d := 0
	for _, l := range in.soft {
		if res.Model[l.Var()] == l.Neg() {
			d++
		}
	}
	if d != res.Distance {
		t.Fatalf("reported distance %d but model has distance %d", res.Distance, d)
	}
}

// TestMinimizeMatchesBruteForce proves, on randomized instances, that
// both strategies reach the globally minimal edit distance (EXPERIMENTS
// §Fig. 8).
func TestMinimizeMatchesBruteForce(t *testing.T) {
	strategies := []Strategy{StrategyLinear, StrategyBinary}
	for seed := int64(0); seed < 80; seed++ {
		in := randomInstance(rand.New(rand.NewSource(seed)))
		want, feasible := in.bruteForce()
		for _, st := range strategies {
			res := solveThenMinimize(in.solver(), in.soft, Options{Strategy: st})
			if !feasible {
				if res.Status != sat.Unsat {
					t.Fatalf("seed %d %v: want Unsat, got %v", seed, st, res.Status)
				}
				continue
			}
			if res.Status != sat.Sat {
				t.Fatalf("seed %d %v: want Sat, got %v", seed, st, res.Status)
			}
			if !res.Optimal {
				t.Fatalf("seed %d %v: unbudgeted search must prove optimality", seed, st)
			}
			if res.Distance != want {
				t.Fatalf("seed %d %v: distance %d, brute force %d", seed, st, res.Distance, want)
			}
			checkModel(t, in, res)
		}
	}
}

// TestMinimizeSolverModelMatchesResult pins the invariant workspace
// decoding relies on: after Minimize, the solver's retained model is the
// minimised model, even when the final probe was UNSAT.
func TestMinimizeSolverModelMatchesResult(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		in := randomInstance(rand.New(rand.NewSource(seed)))
		for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
			s := in.solver()
			res := solveThenMinimize(s, in.soft, Options{Strategy: st})
			if res.Status != sat.Sat {
				continue
			}
			got := s.Model()
			for v := 0; v < in.nVars; v++ {
				if got[v] != res.Model[v] {
					t.Fatalf("seed %d %v: solver model diverges from result at x%d", seed, st, v)
				}
			}
		}
	}
}

func TestMinimizeZeroSoftLits(t *testing.T) {
	s := sat.New()
	a := s.NewVar()
	s.AddClause(sat.PosLit(a))
	res := solveThenMinimize(s, nil, Options{})
	if res.Status != sat.Sat || res.Distance != 0 || !res.Optimal {
		t.Fatalf("want Sat/0/optimal, got %+v", res)
	}
	if res.Stats.Solves != 0 {
		t.Fatalf("no soft lits must cost no probe, got %d", res.Stats.Solves)
	}
}

func TestMinimizeAlreadyOptimalFirstModel(t *testing.T) {
	s := sat.New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(sat.PosLit(a))
	s.AddClause(sat.NegLit(b))
	// Soft targets agree with the forced assignment: distance 0 at once.
	res := solveThenMinimize(s, []sat.Lit{sat.PosLit(a), sat.NegLit(b)}, Options{})
	if res.Status != sat.Sat || res.Distance != 0 || !res.Optimal {
		t.Fatalf("want Sat/0/optimal, got %+v", res)
	}
	if res.Stats.Solves != 0 {
		t.Fatalf("distance-0 first model must not search, got %d probes", res.Stats.Solves)
	}
}

// TestMinimizeFirstModelOnTargetCostsNoProbe: when the caller's model
// already satisfies every soft literal, Minimize returns it as proved
// optimal without a probe, a counter or any solver work, under either
// strategy, with or without Canonical and an encoder cache, and under
// assumptions.
func TestMinimizeFirstModelOnTargetCostsNoProbe(t *testing.T) {
	for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
		for _, canonical := range []bool{false, true} {
			s, chain := chainProblem(6)
			assumps := []sat.Lit{chain[1]}
			if s.Solve(assumps...) != sat.Sat {
				t.Fatal("the chain must be satisfiable with x1 true")
			}
			first := s.Model()
			// The soft targets ask for what the caller's model already has.
			soft := make([]sat.Lit, len(chain))
			for i, l := range chain {
				soft[i] = sat.MkLit(l.Var(), !first[l.Var()])
			}
			opts := Options{Strategy: st, Retractable: canonical, Canonical: canonical, Assumptions: assumps,
				OnStep: func(step Step) { t.Errorf("%v canonical=%v: probe issued: %+v", st, canonical, step) }}
			if canonical {
				opts.Encoder = NewEncoderCache()
			}
			work := s.Stats
			nVars, nClauses := s.NumVars(), s.NumClauses()
			res := Minimize(s, soft, opts)
			if res.Status != sat.Sat || !res.Optimal || res.Distance != 0 || res.Stats.Solves != 0 || res.Stats.Stop != StopNone {
				t.Fatalf("%v canonical=%v: got %+v, want Sat, optimal, distance 0, no probe", st, canonical, res)
			}
			if !sameBools(res.Model, first) {
				t.Fatalf("%v canonical=%v: result is not the caller's model", st, canonical)
			}
			if s.Stats != work || s.NumVars() != nVars || s.NumClauses() != nClauses {
				t.Fatalf("%v canonical=%v: solver did work or grew: %+v → %+v, %d → %d vars, %d → %d clauses",
					st, canonical, work, s.Stats, nVars, s.NumVars(), nClauses, s.NumClauses())
			}
		}
	}
}

// TestMinimizeContradictorySoftPair: l and ¬l both soft is legal; one of
// them is always missed, so the minimum distance is exactly 1.
func TestMinimizeContradictorySoftPair(t *testing.T) {
	for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
		s := sat.New()
		a := s.NewVar()
		s.NewVar() // an unconstrained bystander
		res := solveThenMinimize(s, []sat.Lit{sat.PosLit(a), sat.NegLit(a)}, Options{Strategy: st})
		if res.Status != sat.Sat || res.Distance != 1 || !res.Optimal {
			t.Fatalf("%v: want Sat/1/optimal, got %+v", st, res)
		}
	}
}

// groupedInstance is the ablation workload from EXPERIMENTS.md: n soft
// targets wanting true, arranged in groups of 4 with pairwise at-most-one
// constraints, so exactly one per group can be satisfied and the minimal
// distance is n − n/4 (18 for n = 24).
func groupedInstance(n int) (*sat.Solver, []sat.Lit) {
	s := sat.New()
	soft := make([]sat.Lit, n)
	for i := 0; i < n; i++ {
		soft[i] = sat.PosLit(s.NewVar())
	}
	for g := 0; g < n; g += 4 {
		for i := g; i < g+4; i++ {
			for j := i + 1; j < g+4; j++ {
				s.AddClause(soft[i].Not(), soft[j].Not())
			}
		}
	}
	return s, soft
}

func TestMinimizeGroupedInstance(t *testing.T) {
	for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
		s, soft := groupedInstance(24)
		res := solveThenMinimize(s, soft, Options{Strategy: st})
		if res.Status != sat.Sat || res.Distance != 18 || !res.Optimal {
			t.Fatalf("%v: want Sat/18/optimal, got status=%v d=%d optimal=%v",
				st, res.Status, res.Distance, res.Optimal)
		}
	}
}

func TestMinimizeOnStepAndStats(t *testing.T) {
	for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
		s, soft := groupedInstance(8)
		var steps []Step
		res := solveThenMinimize(s, soft, Options{Strategy: st, OnStep: func(st Step) {
			steps = append(steps, st)
		}})
		if res.Status != sat.Sat || res.Distance != 6 {
			t.Fatalf("%v: want Sat/6, got %v/%d", st, res.Status, res.Distance)
		}
		if len(steps) != res.Stats.Solves {
			t.Fatalf("%v: OnStep fired %d times for %d solves", st, len(steps), res.Stats.Solves)
		}
		if steps[0].Bound != -1 {
			t.Fatalf("%v: first probe must be unbounded, got %d", st, steps[0].Bound)
		}
		for i, step := range steps {
			if step.Solve != i+1 {
				t.Fatalf("%v: step %d reported solve index %d", st, i, step.Solve)
			}
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want Strategy
		ok   bool
	}{
		{"", StrategyAuto, true},
		{"auto", StrategyAuto, true},
		{"linear", StrategyLinear, true},
		{"binary", StrategyBinary, true},
		{"quantum", StrategyAuto, false},
	}
	for _, c := range cases {
		got, ok := ParseStrategy(c.in)
		if got != c.want || ok != c.ok {
			t.Fatalf("ParseStrategy(%q) = %v,%v; want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestSetDefaultStrategy(t *testing.T) {
	prev := SetDefaultStrategy(StrategyBinary)
	defer SetDefaultStrategy(prev)
	s, soft := groupedInstance(24)
	first := -1
	res := solveThenMinimize(s, soft, Options{OnStep: func(st Step) {
		if first < 0 && st.Bound >= 0 {
			first = st.Bound
		}
	}})
	if res.Status != sat.Sat || res.Distance != 18 {
		t.Fatalf("want Sat/18, got %v/%d", res.Status, res.Distance)
	}
	// Core relaxation proves 12 and finds 18. Binary's first capped probe
	// bisects (bound 15), whereas linear's would be distance−1; seeing a
	// bound < distance−1 proves the default was honoured.
	if first < 0 || first >= res.Distance-1 {
		t.Fatalf("binary default not honoured; first capped probe %d", first)
	}
}

// The two EXPERIMENTS.md §Ablations benchmarks: 24 soft targets at
// minimum distance 18.
func benchmarkMinimize(b *testing.B, st Strategy) {
	for i := 0; i < b.N; i++ {
		s, soft := groupedInstance(24)
		res := solveThenMinimize(s, soft, Options{Strategy: st})
		if res.Status != sat.Sat || res.Distance != 18 || !res.Optimal {
			b.Fatalf("want Sat/18/optimal, got %v/%d/%v", res.Status, res.Distance, res.Optimal)
		}
	}
}

func BenchmarkMinimizeLinear(b *testing.B) { benchmarkMinimize(b, StrategyLinear) }
func BenchmarkMinimizeBinary(b *testing.B) { benchmarkMinimize(b, StrategyBinary) }

// TestMinimizeEncoderCache proves the cache changes nothing semantically
// (same optimal distance as brute force, run after run) while keeping the
// session's variable and clause counts flat across repeated minimisations
// — the property long-lived reused sessions depend on. A run may find the
// optimum from core relaxation alone and build no counter; one that does
// build grows the session, and later runs must reuse that counter.
func TestMinimizeEncoderCache(t *testing.T) {
	for _, canonical := range []bool{false, true} {
		for seed := int64(0); seed < 20; seed++ {
			in := randomInstance(rand.New(rand.NewSource(seed)))
			want, feasible := in.bruteForce()
			if !feasible {
				continue
			}
			s := in.solver()
			cache := NewEncoderCache()
			opts := Options{Retractable: true, Encoder: cache, Canonical: canonical}
			vars, clauses := s.NumVars(), s.NumClauses()
			for run := 0; run < 4; run++ {
				built := cache.Built()
				res := solveThenMinimize(s, in.soft, opts)
				if res.Status != sat.Sat || !res.Optimal {
					t.Fatalf("seed %d run %d: status %v optimal %v", seed, run, res.Status, res.Optimal)
				}
				if res.Distance != want {
					t.Fatalf("seed %d run %d: distance %d, brute force %d", seed, run, res.Distance, want)
				}
				checkModel(t, in, res)
				grew := s.NumVars() != vars || s.NumClauses() != clauses
				if grew && (run > 0 || cache.Built() == built) {
					t.Fatalf("seed %d run %d: session grew (%d→%d vars, %d→%d clauses) despite encoder cache",
						seed, run, vars, s.NumVars(), clauses, s.NumClauses())
				}
				vars, clauses = s.NumVars(), s.NumClauses()
			}
			if cache.Built() > 1 {
				t.Fatalf("seed %d: built %d encoders, want at most 1", seed, cache.Built())
			}
			if cache.Built() == 1 && cache.Hits() != 3 {
				t.Fatalf("seed %d: %d cache hits after one build, want 3", seed, cache.Hits())
			}
		}
	}
}
