package sat

import (
	"math/rand"
	"testing"
)

// TestWatcherRoundTrip pins the packed-watcher encoding: cref in the high
// word, blocker literal in the low word, both recoverable exactly —
// including the negative crefUndef sentinel, which must survive the
// uint32 truncation and sign-extend back.
func TestWatcherRoundTrip(t *testing.T) {
	cases := []struct {
		c cref
		b Lit
	}{
		{0, 0},
		{crefUndef, 0},
		{crefUndef, PosLit(Var(17))},
		{1, NegLit(Var(0))},
		{1<<31 - 1, PosLit(Var(1<<29 - 1))},
		{123456, NegLit(Var(654321))},
	}
	for _, tc := range cases {
		w := mkWatcher(tc.c, tc.b)
		if got := w.clause(); got != tc.c {
			t.Errorf("mkWatcher(%d, %d).clause() = %d, want %d", tc.c, tc.b, got, tc.c)
		}
		if got := w.blocker(); got != tc.b {
			t.Errorf("mkWatcher(%d, %d).blocker() = %d, want %d", tc.c, tc.b, got, tc.b)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		c := cref(rng.Int31())
		b := Lit(rng.Int31())
		w := mkWatcher(c, b)
		if w.clause() != c || w.blocker() != b {
			t.Fatalf("round trip failed: (%d, %d) -> (%d, %d)", c, b, w.clause(), w.blocker())
		}
	}
}

// mkLearnt allocates an attached learnt clause with the given activity,
// appended to the solver's learnt list.
func mkLearnt(s *Solver, act float32, lits ...Lit) cref {
	c := s.ca.alloc(lits, true)
	s.ca.setAct(c, act)
	s.attach(c)
	s.learnts = append(s.learnts, c)
	return c
}

// TestReduceDBHalvesByActivity pins the flat policy: binary clauses and
// the reasons of current assignments survive whatever their activity, and
// of the rest exactly the less active half is deleted and dropped from
// the learnt list.
func TestReduceDBHalvesByActivity(t *testing.T) {
	const nVars = 40
	s := newSolverWith(nVars, [][]Lit{{PosLit(0), PosLit(1)}}, Options{DisableSimp: true})
	s.flushWatches()

	// The protected clauses are the least active of all.
	kept := []cref{
		mkLearnt(s, 0, PosLit(2), PosLit(3)),
		mkLearnt(s, 0, NegLit(2), PosLit(4)),
	}
	reason := mkLearnt(s, 0, PosLit(5), PosLit(6), PosLit(7))
	s.newDecisionLevel()
	s.uncheckedEnqueue(NegLit(6), crefUndef)
	s.uncheckedEnqueue(NegLit(7), crefUndef)
	s.uncheckedEnqueue(PosLit(5), reason)
	kept = append(kept, reason)

	// Eight candidates over fresh variables, allocated out of activity
	// order so list position cannot decide which half goes.
	acts := []float32{5, 1, 7, 3, 8, 2, 6, 4}
	cands := make([]cref, len(acts))
	for i, a := range acts {
		v := Var(8 + 3*i)
		cands[i] = mkLearnt(s, a, PosLit(v), NegLit(v+1), PosLit(v+2))
	}

	s.reduceDB()

	for i, c := range kept {
		if s.ca.deleted(c) {
			t.Errorf("protected clause %d %v deleted", i, s.ca.lits(c))
		}
	}
	for i, c := range cands {
		if want := acts[i] <= 4; s.ca.deleted(c) != want {
			t.Errorf("candidate with activity %v: deleted=%v, want %v", acts[i], s.ca.deleted(c), want)
		}
	}
	if s.Stats.Removed != 4 || len(s.learnts) != len(kept)+4 {
		t.Fatalf("removed %d with %d learnts left, want 4 removed and %d left",
			s.Stats.Removed, len(s.learnts), len(kept)+4)
	}
	for _, c := range s.learnts {
		if s.ca.deleted(c) {
			t.Fatalf("deleted clause %v still on the learnt list", s.ca.lits(c))
		}
	}
}
