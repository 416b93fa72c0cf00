package muppet

import (
	"context"
	"fmt"
	"strings"

	"muppet/internal/encode"
	"muppet/internal/envelope"
	"muppet/internal/relational"
	"muppet/internal/sat"
)

// SolveCache keeps live solving sessions keyed by workspace shape (which
// parties participate and in which role), so repeated workflow calls —
// negotiation rounds, conformance retries, repeated consistency checks —
// become incremental solves on a warm session instead of rebuilding
// bounds, grounding, and CNF from scratch. Learnt clauses carry over;
// they are implied by the problem clauses alone, so they stay sound when
// offers change between calls (changed constraint groups get fresh
// selectors, and stale selectors simply stop being assumed).
//
// A SolveCache is single-goroutine, like the sessions it owns: concurrent
// query serving uses one cache per worker over a shared encode.System.
// Its methods are the only entry points of the workflows it serves. The
// nil *SolveCache is valid and means "no reuse": every call builds a
// one-shot workspace, which hardens its assumptions and is discarded
// after the call.
type SolveCache struct {
	entries  map[string]*workspace
	sessions int64
	reuses   int64
	// clock is a logical access counter stamping each workspace's last
	// use, so Evict can drop the least-recently-used session first.
	clock     int64
	evictions int64
	// dropped holds the cumulative counters of evicted sessions (see
	// ReuseStats), so Stats never goes down across Evict. Its gauges
	// stay zero.
	dropped ReuseStats
}

// NewSolveCache creates an empty cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{entries: make(map[string]*workspace)}
}

// ReuseStats reports how much work a SolveCache avoided.
type ReuseStats struct {
	// Sessions is the number of distinct sessions built (cache misses).
	Sessions int64
	// Reuses is the number of calls served by a live session.
	Reuses int64
	// Evictions is the number of live sessions dropped by Evict — the
	// price of keeping a long-lived cache under a memory budget.
	Evictions int64
	// Translation aggregates the translation-cache counters across every
	// session the cache has built, evicted ones included.
	Translation relational.CacheStats
	// Encoding aggregates encoding-size counters: its gauges across the
	// live sessions, its cumulative counters across every session the
	// cache has built.
	Encoding EncodingStats
}

// EncodingStats sizes the encoding pipeline: how big the circuits and
// clause databases are, and how much the preprocessing layers took off.
// CircuitNodes, SolverVars, SolverClauses, LearntClauses, VarsEliminated
// and ArenaBytes are gauges of live sessions; ClausesRemoved and Restored
// are cumulative counters, which a SolveCache keeps for the sessions it
// evicts.
type EncodingStats struct {
	// CircuitNodes is the total number of AIG nodes allocated.
	CircuitNodes int64
	// SolverVars and SolverClauses size the live SAT databases (clauses
	// counts problem clauses after preprocessing).
	SolverVars    int64
	SolverClauses int64
	// LearntClauses counts live learnt clauses — the part of the clause
	// database that grows with search effort on a warm session.
	LearntClauses int64
	// VarsEliminated is the number of variables currently eliminated by
	// CNF preprocessing; ClausesRemoved accumulates clauses it removed.
	// Restored counts variables un-eliminated because an incremental
	// addition (a delta re-assertion, typically) touched them.
	VarsEliminated int64
	ClausesRemoved int64
	Restored       int64
	// ArenaBytes is the exact backing size of the flat clause arenas —
	// the measured counterpart of the ApproxBytes estimate.
	ArenaBytes int64
}

// Approximate per-object sizes of the live solving structures, in bytes.
// These are deliberately rough (struct headers, watch lists, hash-cons
// tables and activity metadata averaged in) — the accounting exists to
// keep a fleet of warm sessions under a budget, not to audit the heap.
const (
	bytesPerCircuitNode = 32 // AIG node: fanins, hash-cons slot, flags
	bytesPerVar         = 56 // assignment, level, reason, activity, watches
	bytesPerClause      = 64 // header + average literal payload + watch refs
)

// ApproxBytes estimates the resident memory behind these encoding sizes.
func (e EncodingStats) ApproxBytes() int64 {
	return e.CircuitNodes*bytesPerCircuitNode +
		e.SolverVars*bytesPerVar +
		(e.SolverClauses+e.LearntClauses)*bytesPerClause
}

func (e *EncodingStats) add(t EncodingStats) {
	e.CircuitNodes += t.CircuitNodes
	e.SolverVars += t.SolverVars
	e.SolverClauses += t.SolverClauses
	e.LearntClauses += t.LearntClauses
	e.VarsEliminated += t.VarsEliminated
	e.ClausesRemoved += t.ClausesRemoved
	e.Restored += t.Restored
	e.ArenaBytes += t.ArenaBytes
}

// counters returns e's cumulative counters alone, its gauges zeroed.
func (e EncodingStats) counters() EncodingStats {
	return EncodingStats{
		ClausesRemoved: e.ClausesRemoved,
		Restored:       e.Restored,
	}
}

// sessionEncodingStats snapshots one live session's encoding sizes.
func sessionEncodingStats(ss *relational.Session) EncodingStats {
	s := ss.Solver()
	return EncodingStats{
		CircuitNodes:   int64(ss.CNF().Factory().NumNodes()),
		SolverVars:     int64(s.NumVars()),
		SolverClauses:  int64(s.NumClauses()),
		LearntClauses:  int64(s.NumLearnts()),
		VarsEliminated: s.Stats.SimpVarsEliminated,
		ClausesRemoved: s.Stats.SimpClausesRemoved,
		Restored:       s.Stats.SimpRestored,
		ArenaBytes:     s.ArenaBytes(),
	}
}

// Add accumulates t's counters into s — the aggregation step when one
// serving process sums per-worker caches for a stats report or a metrics
// scrape.
func (s *ReuseStats) Add(t ReuseStats) {
	s.Sessions += t.Sessions
	s.Reuses += t.Reuses
	s.Evictions += t.Evictions
	s.Translation.StructHits += t.Translation.StructHits
	s.Translation.Misses += t.Translation.Misses
	s.Encoding.add(t.Encoding)
}

// Stats reports the cache's effectiveness counters.
func (c *SolveCache) Stats() ReuseStats {
	if c == nil {
		return ReuseStats{}
	}
	st := ReuseStats{Sessions: c.sessions, Reuses: c.reuses, Evictions: c.evictions}
	st.Add(c.dropped)
	for _, ws := range c.entries {
		t := ws.ss.CacheStats()
		st.Translation.StructHits += t.StructHits
		st.Translation.Misses += t.Misses
		st.Encoding.add(sessionEncodingStats(ws.ss))
	}
	return st
}

// specsKey identifies a workspace shape: each participant's name, role,
// and configuration domain (the relation identities bindDomain binds), in
// order. The key is deliberately shape-based rather than party-pointer
// based: the session state a workspace reuses — bounds, grounding caches,
// CNF, learnt clauses — depends only on the domain relations (bindDomain's
// bounds are configuration-independent), so a freshly built party with the
// same name and domain can be served from the same live session. Its
// goals and offers are per-call state, re-derived by reset; re-compiled
// but structurally identical goal formulas hit the translator's
// structural cache.
func specsKey(specs []partySpec) string {
	var b strings.Builder
	for _, sp := range specs {
		fmt.Fprintf(&b, "%s:%t:%t[", sp.party.Name, sp.enforceFixed, sp.includeGoals)
		for _, r := range sp.party.Domain {
			fmt.Fprintf(&b, "%p,", r)
		}
		b.WriteString("];")
	}
	return b.String()
}

// workspaceFor returns a workspace for the given shape: a reset live one
// on a cache hit, a freshly built reusable one on a miss, and a one-shot
// workspace when the receiver is nil.
func (c *SolveCache) workspaceFor(sys *encode.System, specs []partySpec) *workspace {
	if c == nil {
		return newWorkspace(sys, specs, false)
	}
	key := specsKey(specs)
	c.clock++
	if ws, ok := c.entries[key]; ok && ws.sys == sys {
		c.reuses++
		ws.lastUsed = c.clock
		// The hit may be for different party objects of the same shape:
		// adopt the new specs before reset re-derives the per-call state.
		ws.specs = specs
		ws.reset()
		return ws
	}
	ws := newWorkspace(sys, specs, true)
	ws.lastUsed = c.clock
	c.entries[key] = ws
	c.sessions++
	return ws
}

// Len reports the number of live sessions the cache holds.
func (c *SolveCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// ApproxBytes estimates the resident memory behind the cache's live
// sessions, from each session's encoding sizes (see
// EncodingStats.ApproxBytes). It is the unit a serving process budgets
// warm caches by.
func (c *SolveCache) ApproxBytes() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for _, ws := range c.entries {
		total += sessionEncodingStats(ws.ss).ApproxBytes()
	}
	return total
}

// Evict drops up to n live sessions, least recently used first, releasing
// their circuits, clause databases and learnt clauses to the collector.
// It returns the number evicted. An evicted shape simply rebuilds on its
// next use — eviction trades warm-start latency for memory, never
// correctness. The dropped sessions' cumulative counters stay in Stats.
func (c *SolveCache) Evict(n int) int {
	if c == nil || n <= 0 {
		return 0
	}
	evicted := 0
	for evicted < n && len(c.entries) > 0 {
		lruKey := ""
		var lru *workspace
		for k, ws := range c.entries {
			if lru == nil || ws.lastUsed < lru.lastUsed {
				lruKey, lru = k, ws
			}
		}
		c.dropped.Add(ReuseStats{
			Translation: lru.ss.CacheStats(),
			Encoding:    sessionEncodingStats(lru.ss).counters(),
		})
		delete(c.entries, lruKey)
		c.evictions++
		evicted++
	}
	return evicted
}

// LocalConsistencyCtx implements Alg. 1: can the subject's partial offer
// be completed — with every other party fully free — so that the
// subject's own goals hold? On success the returned instance is one such
// completion, chosen to deviate minimally from the subject's soft
// preferences. On failure the feedback core blames goal rows and fixed
// configuration groups. On budget exhaustion or cancellation the result
// is Indeterminate.
func (c *SolveCache) LocalConsistencyCtx(ctx context.Context, sys *encode.System, subject *Party, others []*Party, b sat.Budget) *Result {
	specs := []partySpec{{party: subject, enforceFixed: true, includeGoals: true}}
	for _, o := range others {
		specs = append(specs, partySpec{party: o})
	}
	return c.workspaceFor(sys, specs).run(ctx, b)
}

// ReconcileCtx implements Alg. 2: complete every party's partial offer so
// that the union of configurations satisfies the union of goals, deviating
// minimally from all soft preferences (the parties' adopt/decode helpers
// recover each configuration from the instance). On failure the core
// names the conflicting goals and configuration groups of all parties —
// the cross-party blame that distinguishes multi-party reconciliation
// from single-party synthesis (Fig. 6). An exhausted budget or a
// cancellation yields Indeterminate, never a bogus core.
func (c *SolveCache) ReconcileCtx(ctx context.Context, sys *encode.System, parties []*Party, b sat.Budget) *Result {
	specs := make([]partySpec, len(parties))
	for i, p := range parties {
		specs[i] = partySpec{party: p, enforceFixed: true, includeGoals: true}
	}
	return c.workspaceFor(sys, specs).run(ctx, b)
}

// MinimalEditCtx implements the second half of Fig. 8: complete the
// party's offer to satisfy the constraints (typically a received envelope
// plus the party's own goals) with minimal deviation from its soft
// preferences. The party's fixed settings are enforced, as are the other
// parties' fixed knobs; on failure the core blames the conflicting
// fragments. An interrupted minimisation degrades to the best valid
// completion found (OK with Stop recorded); exhaustion before any model
// yields Indeterminate. On a warm session, constraints unchanged since an
// earlier round reuse their grounded circuit.
func (c *SolveCache) MinimalEditCtx(ctx context.Context, sys *encode.System, p *Party, constraints []relational.Formula, b sat.Budget, others ...*Party) *Result {
	specs := []partySpec{{party: p, enforceFixed: true, includeGoals: false}}
	for _, o := range others {
		specs = append(specs, partySpec{party: o, enforceFixed: true, includeGoals: false})
	}
	ws := c.workspaceFor(sys, specs)
	for i, cf := range constraints {
		ws.addNamed(fmt.Sprintf("%s/constraint[%d]", p.Name, i), ws.ss.Lit(cf))
	}
	return ws.run(ctx, b)
}

// Revise is the Fig. 8 revision aid for party p against env, given the
// other parties' current configurations. It returns nil when p's current
// configuration already satisfies env and p's own goals; otherwise it
// searches a minimal edit satisfying both, which p adopts when the result
// is OK. A result that is neither OK nor Indeterminate means p is stuck,
// with blame in its Feedback.
func (c *SolveCache) Revise(ctx context.Context, sys *encode.System, p *Party, env *envelope.Envelope, b sat.Budget, others ...*Party) *Result {
	if ok, _ := CheckCandidate(sys, p, env, true, others...); ok {
		return nil
	}
	constraints := append([]relational.Formula{env.Formula()}, p.GoalFormulas()...)
	res := c.MinimalEditCtx(ctx, sys, p, constraints, b, others...)
	if res.OK {
		p.adopt(res.Instance)
	}
	return res
}
