package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// aggressiveOpts makes every hot path of the arena core fire on tiny
// problems: restarts every conflict, a learnt cap small enough to force
// frequent reduceDB passes (and with them arena compactions), and no
// preprocessing floor so BVE runs even on a handful of clauses.
func aggressiveOpts() Options {
	return Options{
		SimpMinClauses: -1,
		restartBase:    1,
		learntCap:      5,
	}
}

// random3SAT draws nClauses clauses of exactly three distinct variables.
func random3SAT(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		vs := rng.Perm(nVars)[:3]
		c := make([]Lit, 3)
		for j, v := range vs {
			c[j] = MkLit(Var(v), rng.Intn(2) == 0)
		}
		clauses[i] = c
	}
	return clauses
}

// TestAggressiveOptsFireSearchCore pins what FuzzDifferentialCDCL's
// configuration reaches: on a random 3-SAT instance at the hard clause
// ratio (4.26), aggressiveOpts must actually restart, delete learnt
// clauses in reduceDB, and compact the arena. Without this, moving or
// dropping an option could quietly shrink the fuzz oracle's coverage.
func TestAggressiveOptsFireSearchCore(t *testing.T) {
	const nVars = 150
	rng := rand.New(rand.NewSource(1))
	clauses := random3SAT(rng, nVars, nVars*426/100)
	s := newSolverWith(nVars, clauses, aggressiveOpts())
	st := s.Solve()
	if st == Sat && !modelSatisfies(s.Model(), clauses) {
		t.Fatal("model does not satisfy the instance")
	}
	if s.Stats.Restarts == 0 || s.Stats.Removed == 0 || s.Stats.ArenaGCs == 0 {
		t.Fatalf("aggressive options left a search path cold: %v, restarts=%d removed=%d arena GCs=%d",
			st, s.Stats.Restarts, s.Stats.Removed, s.Stats.ArenaGCs)
	}
	t.Logf("%v: restarts=%d removed=%d arena GCs=%d", st, s.Stats.Restarts, s.Stats.Removed, s.Stats.ArenaGCs)
}

// decodeCNF turns fuzz bytes into a CNF: the first byte picks the variable
// count, then each zero byte terminates a clause and any other byte b
// contributes the literal with variable (b-1)%nVars and sign ((b-1)/nVars)%2.
func decodeCNF(data []byte) (int, [][]Lit) {
	if len(data) < 2 {
		return 0, nil
	}
	nVars := 3 + int(data[0])%8
	var clauses [][]Lit
	var cur []Lit
	for _, b := range data[1:] {
		if b == 0 {
			if len(cur) > 0 {
				clauses = append(clauses, cur)
				cur = nil
			}
			continue
		}
		v := Var(int(b-1) % nVars)
		neg := (int(b-1)/nVars)%2 == 1
		cur = append(cur, MkLit(v, neg))
		if len(clauses) >= 64 {
			break
		}
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	return nVars, clauses
}

// FuzzDifferentialCDCL cross-checks the full arena CDCL core — learning,
// restarts, reduceDB with arena GC, preprocessing, assumptions and
// failed-assumption cores — against the learning-free DPLL reference
// (DisableLearning), which shares only the propagation engine. The
// session is incremental: both solvers solve the clauses before split,
// freeze the variables set in the freeze mask (which restores any that
// preprocessing eliminated), take the remaining clauses (which restores
// any eliminated variable they name) and solve again. Both solves run
// under the assumptions in assume: variable v is assumed when bit v is
// set, negated when bit 16+v is set too. A third solve assumes every
// variable the first two did not, with the same signs; those variables
// were never frozen by an assumption, so preprocessing may have
// eliminated them and the solve must restore them. Each pair of verdicts
// must agree, every SAT model must satisfy the clauses added so far and
// the assumptions, and every UNSAT core must be a subset of the
// assumptions that the reference finds UNSAT on its own.
func FuzzDifferentialCDCL(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0}, uint8(1), uint16(0), uint32(0))
	f.Add([]byte{5, 1, 0, 9, 0, 1, 9, 0, 2, 10, 0, 2, 0}, uint8(2), uint16(0x3), uint32(0x1_0003))
	f.Add([]byte{7, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0, 10, 11, 12, 0}, uint8(3), uint16(0x2a), uint32(0x15_001f))
	f.Add([]byte{3, 1, 0, 4, 0, 2, 0, 5, 0, 3, 0, 6, 0}, uint8(0), uint16(0x3ff), uint32(0x2_0006))
	// The chain a→b→c→d with a and d assumed: preprocessing eliminates b
	// and c, and the third solve assumes b and ¬c.
	f.Add([]byte{1, 5, 2, 0, 6, 3, 0, 7, 4, 0}, uint8(3), uint16(0), uint32(0x4_0009))
	f.Fuzz(func(t *testing.T, data []byte, split uint8, freeze uint16, assume uint32) {
		nVars, clauses := decodeCNF(data)
		if nVars == 0 {
			return
		}
		var assumps, fresh []Lit
		for v := 0; v < nVars; v++ {
			l := MkLit(Var(v), assume>>(16+v)&1 == 1)
			if assume>>v&1 == 1 {
				assumps = append(assumps, l)
			} else {
				fresh = append(fresh, l)
			}
		}
		first := clauses[:int(split)%(len(clauses)+1)]
		full := newSolverWith(nVars, first, aggressiveOpts())
		ref := newSolverWith(nVars, first, Options{DisableLearning: true})
		check := func(phase string, added [][]Lit, assumps []Lit) {
			got, want := full.Solve(assumps...), ref.Solve(assumps...)
			if got != want {
				t.Fatalf("%s: verdict mismatch: arena CDCL %v, DPLL reference %v (nVars=%d clauses=%v assumptions=%v)",
					phase, got, want, nVars, added, assumps)
			}
			switch got {
			case Sat:
				m := full.Model()
				if !modelSatisfies(m, added) {
					t.Fatalf("%s: arena CDCL model does not satisfy the input (nVars=%d clauses=%v)",
						phase, nVars, added)
				}
				for _, a := range assumps {
					if m[a.Var()] == a.Neg() {
						t.Fatalf("%s: arena CDCL model violates assumption %v (nVars=%d clauses=%v assumptions=%v)",
							phase, a, nVars, added, assumps)
					}
				}
			case Unsat:
				core := full.Core()
				for _, l := range core {
					if !slices.Contains(assumps, l) {
						t.Fatalf("%s: core %v names %v, which is not assumed (assumptions=%v)",
							phase, core, l, assumps)
					}
				}
				if st := ref.Solve(core...); st != Unsat {
					t.Fatalf("%s: core %v re-solves %v on the reference, want UNSAT (nVars=%d clauses=%v)",
						phase, core, st, nVars, added)
				}
			}
		}
		check("first batch", first, assumps)
		for v := 0; v < nVars; v++ {
			if freeze>>v&1 == 1 {
				full.Freeze(Var(v))
				ref.Freeze(Var(v))
			}
		}
		for _, c := range clauses[len(first):] {
			full.AddClause(c...)
			ref.AddClause(c...)
		}
		check("second batch", clauses, assumps)
		check("fresh assumptions", clauses, fresh)
	})
}

// learntSnap records what a learnt clause must keep when the arena is
// rebuilt: its literals and its exact activity.
type learntSnap struct {
	lits []Lit
	act  float32
}

// checkLearnts compares the solver's learnt list with the snapshots, in
// order: each clause must be live, flagged learnt, and keep its literals
// and its exact activity.
func checkLearnts(t *testing.T, s *Solver, want []learntSnap, after string) {
	t.Helper()
	if len(s.learnts) != len(want) {
		t.Fatalf("%s: %d learnts, want %d", after, len(s.learnts), len(want))
	}
	for i, c := range s.learnts {
		if s.ca.deleted(c) || !s.ca.learnt(c) {
			t.Fatalf("%s: learnt %d deleted=%v learnt=%v", after, i, s.ca.deleted(c), s.ca.learnt(c))
		}
		if got := s.ca.lits(c); !slices.Equal(got, want[i].lits) {
			t.Fatalf("%s: learnt %d literals changed: %v -> %v", after, i, want[i].lits, got)
		}
		if got := s.ca.act(c); got != want[i].act {
			t.Fatalf("%s: learnt %d activity changed: %v -> %v", after, i, want[i].act, got)
		}
	}
}

// TestArenaGCRemapsEverything exercises garbageCollect directly: problem
// and learnt clauses must keep their literals, learnt clauses their flag
// and exact activity (the activity word doubles as the forwarding slot),
// the watch lists must be remapped to the relocated crefs, and dead arena
// segments must be reclaimed. runSimplify's arena rebuild must carry the
// learnt clauses over the same way.
func TestArenaGCRemapsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nVars = 12
	clauses := randomCNF(rng, nVars, 30, 4)
	s := newSolverWith(nVars, clauses, Options{DisableSimp: true})
	if !s.Okay() {
		t.Skip("instance trivially unsat at level 0")
	}
	s.flushWatches() // AddClause defers attachment; this test inspects watches

	// Interleave garbage with live learnt clauses: orphan learnts that are
	// allocated and immediately deleted, so the arena has holes to squeeze,
	// between learnts of distinct activities. Each live learnt extends a
	// problem clause by one literal, so it is implied and the final
	// verdict check below still holds.
	var learnts []learntSnap
	for i := 0; i < 20; i++ {
		c := s.ca.alloc([]Lit{PosLit(Var(i % nVars)), NegLit(Var((i + 1) % nVars)), PosLit(Var((i + 2) % nVars))}, true)
		s.ca.delete(c)
		if i%3 != 0 {
			continue
		}
		lits := append([]Lit(nil), s.ca.lits(s.clauses[i%len(s.clauses)])...)
		for v := Var(0); ; v++ {
			if !slices.ContainsFunc(lits, func(l Lit) bool { return l.Var() == v }) {
				lits = append(lits, MkLit(v, i%2 == 0))
				break
			}
		}
		act := float32(i+1) * 0.37
		mkLearnt(s, act, lits...)
		learnts = append(learnts, learntSnap{lits, act})
	}
	wasted := s.ca.wasted
	if wasted == 0 {
		t.Fatal("setup made no garbage")
	}

	before := make([][]Lit, len(s.clauses))
	for i, c := range s.clauses {
		before[i] = append([]Lit(nil), s.ca.lits(c)...)
	}
	oldLen := len(s.ca.data)

	s.garbageCollect()

	if s.Stats.ArenaGCs != 1 {
		t.Fatalf("ArenaGCs = %d, want 1", s.Stats.ArenaGCs)
	}
	if got := len(s.ca.data); got != oldLen-wasted {
		t.Fatalf("arena still %d words after GC, want %d", got, oldLen-wasted)
	}
	if s.ca.wasted != 0 {
		t.Fatalf("wasted = %d after GC, want 0", s.ca.wasted)
	}
	if len(s.clauses) != len(before) {
		t.Fatalf("GC changed the clause count: %d -> %d", len(before), len(s.clauses))
	}
	for i, c := range s.clauses {
		if s.ca.deleted(c) || s.ca.learnt(c) {
			t.Fatalf("clause %d deleted=%v learnt=%v after GC", i, s.ca.deleted(c), s.ca.learnt(c))
		}
		got := s.ca.lits(c)
		if len(got) != len(before[i]) {
			t.Fatalf("clause %d resized: %v -> %v", i, before[i], got)
		}
		for j := range got {
			if got[j] != before[i][j] {
				t.Fatalf("clause %d literals changed: %v -> %v", i, before[i], got)
			}
		}
	}
	checkLearnts(t, s, learnts, "GC")
	// Every attached clause must be watched on its first two literals.
	for i, c := range append(slices.Clone(s.clauses), s.learnts...) {
		lits := s.ca.lits(c)
		for _, w := range lits[:2] {
			found := false
			for _, ww := range s.watches[w] {
				if ww.clause() == c {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("clause %d (%v) lost its watcher on %v after GC", i, lits, w)
			}
		}
	}
	// And no watcher may point at a stale or deleted cref.
	for idx := range s.watches {
		for _, w := range s.watches[idx] {
			if w.clause() < 0 || int(w.clause()) >= len(s.ca.data) || s.ca.deleted(w.clause()) {
				t.Fatalf("stale watcher cref %d survived GC", w.clause())
			}
		}
	}

	// With every variable frozen, preprocessing eliminates nothing, so
	// every learnt clause must come through the rebuild.
	for v := 0; v < nVars; v++ {
		s.pp().Freeze(int32(v))
	}
	s.runSimplify()
	checkLearnts(t, s, learnts, "runSimplify")

	if got, want := s.Solve(), bruteForce(nVars, clauses); (got == Sat) != want {
		t.Fatalf("post-GC verdict %v disagrees with brute force %v", got, want)
	}
}

// TestReduceDBCompactsArena drives a real search with a tiny learnt cap so
// reduceDB runs repeatedly, and checks the verdict stays correct while the
// arena is reclaimed underneath the search.
func TestReduceDBCompactsArena(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		nVars := 8 + rng.Intn(6)
		clauses := randomCNF(rng, nVars, 4*nVars, 3)
		s := newSolverWith(nVars, clauses, aggressiveOpts())
		got := s.Solve()
		want := bruteForce(nVars, clauses)
		if (got == Sat) != want {
			t.Fatalf("round %d: verdict %v, brute force %v", round, got, want)
		}
		if got == Sat && !modelSatisfies(s.Model(), clauses) {
			t.Fatalf("round %d: model does not satisfy input", round)
		}
	}
}

// TestWarmSolverAssumptions solves the same instance repeatedly under
// different assumption sets on one warm solver with the aggressive
// options — restarts, reduceDB and preprocessing must respect frozen
// assumption variables and keep incremental verdicts exact.
func TestWarmSolverAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 15; round++ {
		nVars := 8 + rng.Intn(4)
		clauses := randomCNF(rng, nVars, 4*nVars, 3)
		s := newSolverWith(nVars, clauses, aggressiveOpts())
		for call := 0; call < 8; call++ {
			a1 := MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			a2 := MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			got := s.Solve(a1, a2)
			want := bruteForce(nVars, append([][]Lit{{a1}, {a2}}, clauses...))
			if (got == Sat) != want {
				t.Fatalf("round %d call %d: verdict %v under %v,%v; brute force %v",
					round, call, got, a1, a2, want)
			}
			if got == Sat {
				m := s.Model()
				if !modelSatisfies(m, clauses) || m[a1.Var()] == a1.Neg() || m[a2.Var()] == a2.Neg() {
					t.Fatalf("round %d call %d: model violates clauses or assumptions %v,%v",
						round, call, a1, a2)
				}
			}
			if !s.Okay() {
				break // level-0 unsat: the solver is exhausted for good
			}
		}
	}
}
