package sat

import "sort"

// analyze derives a first-UIP learnt clause from a conflict. It returns the
// learnt literals (asserting literal first) and the backtrack level. The
// returned slice is the solver's reused scratch buffer: callers must copy
// it (into the arena) before the next analyze call.
func (s *Solver) analyze(confl cref) ([]Lit, int32) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, LitUndef) // slot for the asserting literal
	pathC := 0
	var p Lit = LitUndef
	idx := len(s.trail) - 1

	for {
		if confl == crefUndef {
			panic("sat: analyze reached a reason-less literal before the first UIP")
		}
		if s.ca.learnt(confl) {
			s.claBump(confl)
		}
		clits := s.ca.lits(confl)
		if p != LitUndef {
			clits = clits[1:] // skip the asserting literal of the reason clause
		}
		for _, q := range clits {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.varBump(v)
			if s.level[v] >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Snapshot the variables whose seen flags must be cleared: the in-place
	// compaction below overwrites dropped literals (MiniSat keeps a separate
	// analyze_toclear list for the same reason).
	toClear := s.toClear[:0]
	for _, l := range learnt {
		toClear = append(toClear, l.Var())
	}
	s.toClear = toClear[:0]

	// Conflict-clause minimisation: drop literals implied by the rest.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.reason[v] == crefUndef || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	minimized := learnt[:j]

	for _, v := range toClear {
		s.seen[v] = 0
	}

	btLevel := int32(0)
	if len(minimized) > 1 {
		// Move the highest-level non-asserting literal to position 1.
		maxI := 1
		for i := 2; i < len(minimized); i++ {
			if s.level[minimized[i].Var()] > s.level[minimized[maxI].Var()] {
				maxI = i
			}
		}
		minimized[1], minimized[maxI] = minimized[maxI], minimized[1]
		btLevel = s.level[minimized[1].Var()]
	}
	s.analyzeBuf = learnt[:0]
	return minimized, btLevel
}

// litRedundant reports whether l is implied by the other literals of the
// learnt clause via its reason clause (MiniSat's ccmin_mode=1 local
// minimisation: every antecedent literal must itself be seen or at level 0).
func (s *Solver) litRedundant(l Lit) bool {
	c := s.reason[l.Var()]
	for _, q := range s.ca.lits(c)[1:] {
		v := q.Var()
		if s.seen[v] == 0 && s.level[v] != 0 {
			return false
		}
	}
	return true
}

// analyzeFinal computes the set of assumption literals responsible for
// forcing p false, storing their negations in s.conflict.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == crefUndef {
			// Decision ⇒ assumption at this point of the search.
			s.conflict = append(s.conflict, s.trail[i].Not())
		} else {
			for _, q := range s.ca.lits(s.reason[v])[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

// reduceDB halves the learnt-clause database by activity (MiniSat's
// policy): binary clauses and the reasons of current assignments are
// kept, and the less active half of the rest is deleted. The arena is
// compacted when enough of it has died.
func (s *Solver) reduceDB() {
	ca := &s.ca
	locked := func(c cref) bool {
		v := ca.lits(c)[0].Var()
		return s.assigns[v] != lUndef && s.reason[v] == c
	}
	keep := s.learnts[:0]
	cand := make([]cref, 0, len(s.learnts))
	for _, c := range s.learnts {
		if ca.size(c) <= 2 || locked(c) {
			keep = append(keep, c)
		} else {
			cand = append(cand, c)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return ca.act(cand[i]) < ca.act(cand[j]) })
	limit := len(cand) / 2
	for i, c := range cand {
		if i < limit {
			s.detach(c)
			s.Stats.Removed++
		} else {
			keep = append(keep, c)
		}
	}
	s.learnts = keep
	// The kept binaries and reasons can exceed the limit that triggered
	// this call; grow it past the survivors so reduceDB doesn't re-fire
	// every conflict while deleting nothing.
	if float64(len(s.learnts)) >= s.maxLearnts {
		s.maxLearnts = float64(len(s.learnts))*1.1 + 100
	}
	s.maybeGC()
}

// luby computes the i-th element (1-based) of the Luby restart sequence
// scaled by base.
func luby(base int64, i int64) int64 {
	// Find the finite subsequence containing index i.
	var k uint = 1
	for (int64(1)<<k)-1 < i {
		k++
	}
	for (int64(1)<<k)-1 != i {
		i -= (int64(1) << (k - 1)) - 1
		k = 1
		for (int64(1)<<k)-1 < i {
			k++
		}
	}
	return base << (k - 1)
}

// search runs CDCL until a model, a restart or budget exhaustion, a
// cancellation, or an assumption failure. nConflicts bounds this restart's
// conflicts. Budget/cancellation stops set s.stopReason, which
// distinguishes them from an ordinary restart in Solve's outer loop.
func (s *Solver) search(nConflicts int64) Status {
	conflicts := int64(0)
	for {
		if r := s.stopCheck(); r != StopNone {
			s.stopReason = r
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsatLevel0 = true
				s.conflict = s.conflict[:0]
				return Unsat
			}
			if s.opts.DisableLearning {
				// Chronological backtracking: flip the most recent decision
				// by learning only the negation of the current decisions.
				decs := make([]Lit, 0, s.decisionLevel())
				for _, ti := range s.trailLim {
					d := s.trail[ti].Not()
					// Dummy assumption levels duplicate the next decision.
					if n := len(decs); n == 0 || decs[n-1] != d {
						decs = append(decs, d)
					}
				}
				s.cancelUntil(s.decisionLevel() - 1)
				if len(decs) == 1 {
					s.uncheckedEnqueue(decs[0], crefUndef)
				} else {
					// Order for watching: asserting literal first.
					last := len(decs) - 1
					decs[0], decs[last] = decs[last], decs[0]
					c := s.ca.alloc(decs, true)
					s.learnts = append(s.learnts, c)
					s.attach(c)
					s.uncheckedEnqueue(decs[0], c)
				}
				s.varDecay()
				continue
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.ca.alloc(learnt, true)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.claBump(c)
				s.uncheckedEnqueue(s.ca.lits(c)[0], c)
			}
			s.varDecay()
			s.claDecay()
			continue
		}

		if conflicts >= nConflicts {
			s.cancelUntil(0)
			return Unknown // restart
		}
		if !s.opts.DisableLearning && float64(len(s.learnts)) >= s.maxLearnts {
			s.reduceDB()
		}

		// Assumptions first, then free decisions.
		next := LitUndef
		for int(s.decisionLevel()) < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // already satisfied; dummy level
				continue
			case lFalse:
				s.analyzeFinal(a.Not())
				return Unsat
			}
			next = a
			break
		}
		if next == LitUndef {
			next = s.pickBranchVar()
			if next == LitUndef {
				return Sat // all variables assigned
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// Solve determines satisfiability of the clause set under the given
// assumption literals. On Sat, Model/Value expose the assignment; on Unsat,
// Core exposes the failed assumptions. Solve may be called repeatedly,
// interleaved with AddClause and NewVar. An Unknown return means a budget
// or cancellation stopped the search (see SolveCtx and StopReason); plain
// Solve never returns Unknown.
func (s *Solver) Solve(assumps ...Lit) Status {
	s.stopReason = StopNone
	if s.unsatLevel0 {
		s.conflict = s.conflict[:0]
		return Unsat
	}
	// Pre-flight: an already-expired deadline or cancelled context must not
	// start (and potentially finish) a search whose verdict the caller has
	// declared itself unwilling to wait for.
	if r := s.stopNow(); r != StopNone {
		s.stopReason = r
		return Unknown
	}
	s.cancelUntil(0)
	// Assumption variables are frozen (and, if a previous run eliminated
	// them, restored) so the assumptions name live variables. Restoring
	// re-adds clauses through AddClause, which queues them for watching,
	// so this comes before the flush.
	for _, a := range assumps {
		s.Freeze(a.Var())
	}
	s.flushWatches()
	if confl := s.propagate(); confl != crefUndef {
		s.unsatLevel0 = true
		s.conflict = s.conflict[:0]
		return Unsat
	}
	// Preprocess before search if the clause database is fresh or has
	// grown enough since the last run. See simplify.go.
	if !s.opts.DisableSimp {
		s.maybeSimplify()
		if s.unsatLevel0 {
			s.conflict = s.conflict[:0]
			return Unsat
		}
	}
	s.assumptions = assumps
	defer func() { s.assumptions = nil }()

	s.maxLearnts = float64(len(s.clauses)) / 3
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	if s.opts.learntCap > 0 {
		s.maxLearnts = float64(s.opts.learntCap)
	}

	var restart int64 = 1
	for {
		st := s.search(luby(s.opts.lubyUnit(), restart))
		switch st {
		case Sat:
			s.model = make([]bool, len(s.assigns))
			for v := range s.assigns {
				s.model[v] = s.assigns[v] == lTrue
			}
			s.extendModel()
			s.cancelUntil(0)
			return Sat
		case Unsat:
			s.cancelUntil(0)
			return Unsat
		}
		if s.stopReason != StopNone {
			return Unknown // budget or cancellation, not a restart
		}
		s.Stats.Restarts++
		restart++
		if s.opts.learntCap <= 0 {
			s.maxLearnts *= s.learntGrowth
		}
	}
}

// Okay reports whether the clause set is still possibly satisfiable (no
// empty clause has been derived at level 0).
func (s *Solver) Okay() bool { return !s.unsatLevel0 }
