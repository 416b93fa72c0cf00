package target

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"muppet/internal/sat"
)

// richInstance is randomInstance plus the shapes core relaxation must
// handle: a duplicated soft literal, a contradictory soft pair, and
// assumptions, some of which are soft literals themselves.
func richInstance(rng *rand.Rand) *instance {
	in := randomInstance(rng)
	if rng.Intn(2) == 0 {
		in.soft = append(in.soft, in.soft[rng.Intn(len(in.soft))])
	}
	if rng.Intn(3) == 0 {
		in.soft = append(in.soft, in.soft[rng.Intn(len(in.soft))].Not())
	}
	for n := rng.Intn(3); n > 0; n-- {
		l := sat.MkLit(sat.Var(rng.Intn(in.nVars)), rng.Intn(2) == 0)
		if rng.Intn(2) == 0 {
			l = in.soft[rng.Intn(len(in.soft))]
		}
		in.assumps = append(in.assumps, l)
	}
	return in
}

// awayFromTarget seeds the solver's saved phases with the complement of
// the soft targets, so the plain first model lands as far from the target
// as the clauses allow and relaxation has a wide gap to close.
func awayFromTarget(s *sat.Solver, soft []sat.Lit) {
	away := make([]bool, s.NumVars())
	for _, l := range soft {
		away[l.Var()] = l.Neg()
	}
	s.SetPhases(away)
}

// sameModel reports whether the solver's retained model equals m on the
// instance's variables (a counter adds more).
func sameModel(s *sat.Solver, m []bool, nVars int) bool {
	got := s.Model()
	for v := 0; v < nVars; v++ {
		if got[v] != m[v] {
			return false
		}
	}
	return true
}

// TestMinimizeFarFirstModelMatchesBruteForce checks core-tightened
// minimisation against brute force when the first model is far from the
// optimum, under both strategies, with and without Canonical, over
// duplicate and contradictory soft literals and assumptions: the distance
// is the true minimum, the model satisfies clauses and assumptions, the
// solver retains the returned model, and a canonical model is the
// brute-force lexicographic one.
func TestMinimizeFarFirstModelMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	far, feasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		in := richInstance(rng)
		want, ok := in.bruteForce()
		wantLex, _ := in.bruteForceLex()
		if ok {
			feasible++
		}
		for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
			for _, canonical := range []bool{false, true} {
				s := in.solver()
				awayFromTarget(s, in.soft)
				if got := s.Solve(in.assumps...); (got == sat.Sat) != ok {
					t.Fatalf("trial %d %v canonical=%v: first solve %v, brute force satisfiable %v", trial, st, canonical, got, ok)
				}
				if !ok {
					continue
				}
				first := distance(s.Model(), in.soft)
				res := Minimize(s, in.soft, Options{
					Strategy: st, Retractable: canonical, Canonical: canonical,
					Assumptions: in.assumps,
				})
				if res.Status != sat.Sat || !res.Optimal || res.Stats.Stop != StopNone {
					t.Fatalf("trial %d %v canonical=%v: status %v optimal %v stop %v",
						trial, st, canonical, res.Status, res.Optimal, res.Stats.Stop)
				}
				if res.Distance != want {
					t.Fatalf("trial %d %v canonical=%v: distance %d, brute force %d", trial, st, canonical, res.Distance, want)
				}
				checkModel(t, in, res)
				for _, l := range in.assumps {
					if res.Model[l.Var()] == l.Neg() {
						t.Fatalf("trial %d %v canonical=%v: model violates assumption %v", trial, st, canonical, l)
					}
				}
				if !sameModel(s, res.Model, in.nVars) {
					t.Fatalf("trial %d %v canonical=%v: solver model diverges from result", trial, st, canonical)
				}
				if canonical && !sameBools(softProjection(res.Model, in.soft), wantLex) {
					t.Fatalf("trial %d %v: canonical projection %v, brute-force lex %v",
						trial, st, softProjection(res.Model, in.soft), wantLex)
				}
				if st == StrategyLinear && !canonical && first > want+1 {
					far++
				}
			}
		}
	}
	// The suite must actually exercise far first models.
	if far < feasible/4 {
		t.Fatalf("only %d of %d feasible trials started more than one flip from the optimum", far, feasible)
	}
}

// gatedPigeons is an instance whose first relaxation probe needs search:
// soft targets a and b, and a∧b switches on three pigeons in two holes.
// The first model, seeded all-false, costs no conflicts; assuming both
// targets costs several before the core {a, b} is found.
func gatedPigeons() (*sat.Solver, []sat.Lit) {
	s := sat.New()
	a, b := sat.PosLit(s.NewVar()), sat.PosLit(s.NewVar())
	var p [3][2]sat.Lit
	for i := range p {
		for j := range p[i] {
			p[i][j] = sat.PosLit(s.NewVar())
		}
		s.AddClause(a.Not(), b.Not(), p[i][0], p[i][1])
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			for k := i + 1; k < 3; k++ {
				s.AddClause(p[i][j].Not(), p[k][j].Not())
			}
		}
	}
	s.SetPhases(make([]bool, s.NumVars()))
	return s, []sat.Lit{a, b}
}

// TestMinimizeStopDuringRelaxation lands each kind of stop on the first
// core relaxation probe. Every run must return the caller's first model,
// not claim optimality, record the cause, and leave that model as the
// solver's retained one; no capped probe may have been issued.
func TestMinimizeStopDuringRelaxation(t *testing.T) {
	cases := []struct {
		name string
		want StopReason
		opts func() Options
	}{
		// The first relaxation probe needs several conflicts and more
		// than one propagation.
		{"conflicts", StopConflicts, func() Options {
			return Options{Budget: sat.Budget{MaxConflicts: 1}}
		}},
		{"propagations", StopPropagations, func() Options {
			return Options{Budget: sat.Budget{MaxPropagations: 1}}
		}},
		{"deadline", StopDeadline, func() Options {
			return Options{Budget: sat.Budget{Deadline: time.Now().Add(-time.Second)}}
		}},
		{"cancel", StopCancelled, func() Options {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return Options{Context: ctx}
		}},
	}
	for _, c := range cases {
		for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
			for _, canonical := range []bool{false, true} {
				s, soft := gatedPigeons()
				if got := s.Solve(); got != sat.Sat {
					t.Fatalf("first model: status %v, want Sat", got)
				}
				firstModel := s.Model()
				firstDistance := distance(firstModel, soft)
				if firstDistance != 2 {
					t.Fatalf("first model at distance %d, want 2", firstDistance)
				}
				opts := c.opts()
				opts.Strategy, opts.Retractable, opts.Canonical = st, canonical, canonical
				var bounds []int
				opts.OnStep = func(step Step) { bounds = append(bounds, step.Bound) }
				res := Minimize(s, soft, opts)
				name := c.name + "/" + st.String()
				if res.Status != sat.Sat || res.Optimal || res.Stats.Stop != c.want {
					t.Fatalf("%s canonical=%v: status %v optimal %v stop %v, want Sat, not optimal, %v",
						name, canonical, res.Status, res.Optimal, res.Stats.Stop, c.want)
				}
				if res.Distance != firstDistance || !sameBools(res.Model, firstModel) {
					t.Fatalf("%s canonical=%v: returned distance %d, not the caller's first model's %d",
						name, canonical, res.Distance, firstDistance)
				}
				if !sameModel(s, res.Model, len(res.Model)) {
					t.Fatalf("%s canonical=%v: solver model diverges from result", name, canonical)
				}
				for _, b := range bounds {
					if b >= 0 {
						t.Fatalf("%s canonical=%v: capped probe issued during relaxation: %v", name, canonical, bounds)
					}
				}
			}
		}
	}
}

// TestAdoptReestablishesNearerModel covers the one relaxation outcome no
// small instance steers into reliably: the relaxed model is farther than
// the first. adopt must re-establish a model no farther than the first
// and leave it as the solver's retained model; when a budget or
// cancellation stops that probe it keeps the relaxed model, so the two
// still agree.
func TestAdoptReestablishesNearerModel(t *testing.T) {
	for _, budget := range []bool{true, false} {
		s := sat.New()
		soft := make([]sat.Lit, 4)
		for i := range soft {
			soft[i] = sat.PosLit(s.NewVar())
		}
		if s.Solve(soft[0].Not(), soft[1], soft[2], soft[3]) != sat.Sat {
			t.Fatal("near model must exist")
		}
		r := Result{Status: sat.Sat, Model: s.Model(), Distance: 1}
		if s.Solve(soft[0].Not(), soft[1].Not(), soft[2].Not(), soft[3].Not()) != sat.Sat {
			t.Fatal("far model must exist")
		}
		probes := 0
		probe := func(_ int, assumps ...sat.Lit) sat.Status {
			probes++
			if !budget {
				return sat.Unknown // stopped before it could solve
			}
			return s.Solve(assumps...)
		}
		done := adopt(s, soft, &r, nil, probe)
		if !sameModel(s, r.Model, len(soft)) || distance(r.Model, soft) != r.Distance {
			t.Fatalf("budget=%v: result and solver models disagree", budget)
		}
		switch {
		case budget && (!done || r.Distance > 1 || probes != 1):
			t.Fatalf("budget=%v: done %v distance %d after %d probes, want done at ≤1 after 1",
				budget, done, r.Distance, probes)
		case !budget && (done || r.Distance != 4 || probes != 1):
			t.Fatalf("budget=%v: done %v distance %d after %d probes, want stopped at 4 after 1",
				budget, done, r.Distance, probes)
		}
	}
}

// TestMinimizeCoresProveMinimumWithoutDescent: when the disjoint cores
// already prove the tightened distance minimal, no capped descent probe
// is issued, and without Canonical no counter is built at all.
func TestMinimizeCoresProveMinimumWithoutDescent(t *testing.T) {
	build := func() (*sat.Solver, []sat.Lit) {
		// Four exclusive pairs of soft targets, plus a contradictory soft
		// pair: five disjoint cores, minimum distance 5.
		s := sat.New()
		var soft []sat.Lit
		for i := 0; i < 4; i++ {
			a, b := sat.PosLit(s.NewVar()), sat.PosLit(s.NewVar())
			s.AddClause(a.Not(), b.Not())
			soft = append(soft, a, b)
		}
		c := sat.PosLit(s.NewVar())
		soft = append(soft, c, c.Not())
		awayFromTarget(s, soft)
		return s, soft
	}
	for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
		for _, canonical := range []bool{false, true} {
			s, soft := build()
			vars := s.NumVars()
			if s.Solve() != sat.Sat {
				t.Fatal("the pairs must be satisfiable")
			}
			first := distance(s.Model(), soft)
			var steps []Step
			res := Minimize(s, soft, Options{
				Strategy: st, Retractable: canonical, Canonical: canonical,
				OnStep: func(step Step) { steps = append(steps, step) },
			})
			if res.Status != sat.Sat || !res.Optimal || res.Distance != 5 {
				t.Fatalf("%v canonical=%v: status %v optimal %v distance %d, want optimal 5",
					st, canonical, res.Status, res.Optimal, res.Distance)
			}
			if first <= res.Distance {
				t.Fatalf("%v canonical=%v: first model already at %d; the instance must start far", st, canonical, first)
			}
			for _, step := range steps {
				if step.Bound >= 0 && step.Bound < res.Distance {
					t.Fatalf("%v canonical=%v: descent probe at bound %d after cores proved %d",
						st, canonical, step.Bound, res.Distance)
				}
				if !canonical && step.Bound >= 0 {
					t.Fatalf("%v: capped probe issued without Canonical: %+v", st, steps)
				}
			}
			if !canonical && s.NumVars() != vars {
				t.Fatalf("%v: counter built (%d→%d vars) though the cores proved the minimum", st, vars, s.NumVars())
			}
			if !sameModel(s, res.Model, vars) {
				t.Fatalf("%v canonical=%v: solver model diverges from result", st, canonical)
			}
		}
	}
}

// TestEncoderCacheGrowsGeometrically: a session asked for ever larger
// truncations rebuilds its counter O(log n) times, not once per request.
func TestEncoderCacheGrowsGeometrically(t *testing.T) {
	const n = 200
	s := sat.New()
	soft := make([]sat.Lit, n)
	for i := range soft {
		soft[i] = sat.PosLit(s.NewVar())
	}
	c := NewEncoderCache()
	for bound := 1; bound <= n; bound++ {
		tot := c.get(s, soft, c.lookup(soft), bound)
		if _, ok := tot.atMostLit(bound - 1); !ok {
			t.Fatalf("request %d: counter does not express ≤ %d", bound, bound-1)
		}
	}
	if limit := bits.Len(n-1) + 1; c.Built() > limit { // ⌈log₂ n⌉+1
		t.Fatalf("%d increasing requests built %d counters, want at most %d", n, c.Built(), limit)
	}
	if c.Built()+c.Hits() != n {
		t.Fatalf("built %d + hits %d != %d requests", c.Built(), c.Hits(), n)
	}
}

// FuzzMinimize compares a solve followed by Minimize with brute force on
// tiny random CNFs: satisfiability, minimal distance, the returned
// model's validity, the solver's retained model, and under Canonical the
// lexicographic model.
// Bytes pick the variable count, clauses, soft literals, assumptions, the
// strategy, Canonical, and whether the first model is pushed away from
// the target.
func FuzzMinimize(f *testing.F) {
	f.Add([]byte{5, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 1, 3, 5, 7, 1, 2, 3})
	f.Add([]byte{7, 9, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 7, 7, 7, 7, 0, 1, 2, 3, 6, 5, 4, 3, 2, 1, 0, 0, 7})
	f.Add([]byte{3, 0, 6, 0, 1, 2, 3, 4, 5, 1, 9, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		in := &instance{nVars: 1 + next()%8}
		lit := func() sat.Lit {
			b := next()
			return sat.MkLit(sat.Var(b%in.nVars), b/in.nVars%2 == 1)
		}
		for n := next() % 16; n > 0; n-- {
			c := make([]sat.Lit, 1+next()%3)
			for i := range c {
				c[i] = lit()
			}
			in.clauses = append(in.clauses, c)
		}
		for n := 1 + next()%8; n > 0; n-- {
			in.soft = append(in.soft, lit())
		}
		for n := next() % 3; n > 0; n-- {
			in.assumps = append(in.assumps, lit())
		}
		flags := next()
		st := []Strategy{StrategyLinear, StrategyBinary}[flags&1]
		canonical := flags&2 != 0

		want, ok := in.bruteForce()
		s := in.solver()
		if flags&4 != 0 {
			awayFromTarget(s, in.soft)
		}
		res := solveThenMinimize(s, in.soft, Options{
			Strategy: st, Retractable: canonical, Canonical: canonical, Assumptions: in.assumps,
		})
		if !ok {
			if res.Status != sat.Unsat {
				t.Fatalf("want Unsat, got %v", res.Status)
			}
			return
		}
		if res.Status != sat.Sat || !res.Optimal || res.Distance != want {
			t.Fatalf("status %v optimal %v distance %d, brute force %d", res.Status, res.Optimal, res.Distance, want)
		}
		checkModel(t, in, res)
		for _, l := range in.assumps {
			if res.Model[l.Var()] == l.Neg() {
				t.Fatalf("model violates assumption %v", l)
			}
		}
		if !sameModel(s, res.Model, in.nVars) {
			t.Fatal("solver model diverges from result")
		}
		if canonical {
			wantLex, _ := in.bruteForceLex()
			if got := softProjection(res.Model, in.soft); !sameBools(got, wantLex) {
				t.Fatalf("canonical projection %v, brute-force lex %v", got, wantLex)
			}
		}
	})
}
