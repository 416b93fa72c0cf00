// Package simp implements SatELite-style CNF preprocessing: bounded
// variable elimination by clause distribution, clause subsumption, and
// self-subsuming resolution (strengthening), together with the two pieces
// of bookkeeping that make preprocessing safe in an incremental,
// model-producing solver:
//
//   - a frozen-variable interface: variables whose identity matters outside
//     the clause database — relational tuple variables, assumption and
//     selector literals, cardinality outputs — are frozen by the callers
//     that own them and are never eliminated;
//   - a model-reconstruction stack: eliminating a variable records the
//     clauses it appeared in, and Extend replays the stack in reverse to
//     give eliminated variables values consistent with every recorded
//     clause, so a model of the simplified formula extends to a model of
//     the original one.
//
// The working state is flat: clause literals live in one per-run arena
// indexed by (offset, length) clause headers, clauses are referenced by
// index, and occurrence lists hold indices — a Run makes O(1) allocations
// per pass instead of two per clause, which matters because preprocessing
// runs on every cold reconcile and again whenever a warm session's clause
// database has grown enough.
//
// The package is deliberately below package sat in the import graph (sat
// drives it before search), so it defines its own literal type with the
// same encoding and no solver dependencies. All iteration is over slices
// in index order: given the same input, a run makes the same eliminations
// in the same order, which the byte-stability guarantees upstream rely on.
package simp

// Lit is a literal: variable v as 2v (positive) or 2v+1 (negated) — the
// same encoding as sat.Lit, so conversion is a cast.
type Lit int32

// MkLit builds a literal from a variable index and a sign.
func MkLit(v int32, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int32 { return int32(l) >> 1 }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Effort bounds keeping elimination cheap: a variable is only eliminated
// when distributing its clauses does not grow the database (the classic
// grow=0 rule), and pathological variables are skipped outright.
const (
	occLim    = 12  // skip if both polarities occur more often than this
	pairLim   = 600 // skip if the resolvent candidate count exceeds this
	clauseLim = 24  // never produce a resolvent longer than this
)

// Stats counts preprocessing work across a Preprocessor's lifetime.
type Stats struct {
	VarsEliminated   int64 // variables eliminated (net of restores)
	ClausesSubsumed  int64 // clauses deleted by subsumption
	LitsStrengthened int64 // literals removed by self-subsuming resolution
	ClausesIn        int64 // clauses most recently handed to Run
	ClausesOut       int64 // clauses most recently returned by Run
	Restored         int64 // variables un-eliminated by Restore
}

// elimRecord is one entry of the reconstruction stack: the variable and
// the clauses (all of which mention it) that were removed when it was
// eliminated, stored flat — one literal buffer with prefix ends.
type elimRecord struct {
	v    int32
	flat []Lit
	ends []int32 // ends[i] is the exclusive end of clause i in flat
	dead bool    // restored; skipped by Extend
}

// Preprocessor holds the state that must persist across runs of an
// incremental solver: which variables are frozen, which are currently
// eliminated, and the reconstruction stack. It is not safe for concurrent
// use.
type Preprocessor struct {
	frozen  []bool
	elim    []bool
	records []elimRecord
	recIdx  map[int32]int // eliminated var → live index into records

	// Stats accumulates counters across Run calls.
	Stats Stats
}

// New returns an empty preprocessor.
func New() *Preprocessor {
	return &Preprocessor{recIdx: make(map[int32]int)}
}

// EnsureVars grows the variable tables to cover at least n variables.
func (p *Preprocessor) EnsureVars(n int) {
	for len(p.frozen) < n {
		p.frozen = append(p.frozen, false)
		p.elim = append(p.elim, false)
	}
}

// Freeze marks v as never-eliminate. Callers must Restore an eliminated
// variable before freezing it (package sat does this transparently).
func (p *Preprocessor) Freeze(v int32) {
	p.EnsureVars(int(v) + 1)
	p.frozen[v] = true
}

// Frozen reports whether v is frozen.
func (p *Preprocessor) Frozen(v int32) bool {
	return int(v) < len(p.frozen) && p.frozen[v]
}

// Eliminated reports whether v is currently eliminated.
func (p *Preprocessor) Eliminated(v int32) bool {
	return int(v) < len(p.elim) && p.elim[v]
}

// NumEliminated returns the number of currently eliminated variables.
func (p *Preprocessor) NumEliminated() int { return len(p.recIdx) }

// Restore un-eliminates v and returns the clauses recorded at its
// elimination; the caller must re-add them to its database (they may
// mention other eliminated variables, which then need restoring too).
// The returned slices view the record's retained buffer and stay valid.
// Returns nil when v is not eliminated.
func (p *Preprocessor) Restore(v int32) [][]Lit {
	idx, ok := p.recIdx[v]
	if !ok {
		return nil
	}
	rec := &p.records[idx]
	rec.dead = true
	delete(p.recIdx, v)
	p.elim[v] = false
	p.Stats.VarsEliminated--
	p.Stats.Restored++
	out := make([][]Lit, len(rec.ends))
	start := int32(0)
	for i, end := range rec.ends {
		out[i] = rec.flat[start:end]
		start = end
	}
	return out
}

// Extend assigns every eliminated variable a value consistent with its
// recorded clauses, walking the reconstruction stack newest-first so that
// variables eliminated later (whose records the earlier ones may mention)
// are valued first. model is indexed by variable and must cover every
// recorded variable; entries for eliminated variables are overwritten.
func (p *Preprocessor) Extend(model []bool) {
	for i := len(p.records) - 1; i >= 0; i-- {
		rec := &p.records[i]
		if rec.dead {
			continue
		}
		// Default false; a recorded clause that needs v true and is not
		// otherwise satisfied forces true. The resolvents kept in the
		// database guarantee no clause then needs v false.
		val := false
		start := int32(0)
		for _, end := range rec.ends {
			cls := rec.flat[start:end]
			start = end
			needsTrue, satisfied := false, false
			for _, l := range cls {
				if l.Var() == rec.v {
					needsTrue = !l.Neg()
					continue
				}
				if model[l.Var()] != l.Neg() {
					satisfied = true
					break
				}
			}
			if !satisfied && needsTrue {
				val = true
				break
			}
		}
		model[rec.v] = val
	}
}

// Result is the outcome of one Run.
type Result struct {
	// Clauses is the simplified database (each with ≥ 2 literals, sorted,
	// duplicate- and tautology-free). The slices view the run's literal
	// arena: they stay valid until the caller drops the Result, but the
	// caller is expected to copy them into its own database promptly.
	Clauses [][]Lit
	// Units are facts derived during simplification, to be enqueued at
	// level 0 by the caller.
	Units []Lit
	// Unsat reports that simplification derived the empty clause.
	Unsat bool
}

// Run simplifies the given clause database. Input clauses must be free of
// duplicate literals and tautologies (sat.AddClause guarantees this) and
// must not mention currently eliminated variables. abort, when non-nil,
// is polled between variable eliminations; aborting returns the valid
// partial result. The input slices are not modified.
func (p *Preprocessor) Run(clauses [][]Lit, abort func() bool) Result {
	p.Stats.ClausesIn = int64(len(clauses))
	for _, lits := range clauses {
		for _, l := range lits {
			p.EnsureVars(int(l.Var()) + 1)
		}
	}
	total := 0
	for _, lits := range clauses {
		total += len(lits)
	}
	rs := &runState{p: p, abort: abort}
	// Half again the input size leaves headroom for resolvents before the
	// arena has to grow.
	rs.arena = make([]Lit, 0, total+total/2)
	rs.cls = make([]cl, 0, len(clauses))
	rs.occ = make([][]clRef, 2*len(p.frozen))
	rs.occDirty = make([]bool, 2*len(p.frozen))
	rs.assigns = make([]int8, len(p.frozen))
	// Pre-size the occurrence lists: one counting pass over the input, then
	// every list is carved out of a single flat arena, capacity-clamped so
	// an append past its count cannot clobber a neighbour. The counts are
	// upper bounds (clauses reduced away under the current assignment never
	// claim their slots), and lists grown later by resolvents fall back to
	// ordinary reallocation — both fine; what matters is that loading the
	// input costs O(1) allocations instead of a grow chain per literal.
	occCnt := make([]int32, 2*len(p.frozen))
	for _, lits := range clauses {
		for _, l := range lits {
			occCnt[l]++
		}
	}
	// A quarter slack per list absorbs most resolvent appends from BVE
	// without reallocating the list.
	occPad := func(n int) int { return n + n/4 + 2 }
	padded := 0
	for _, n := range occCnt {
		padded += occPad(int(n))
	}
	occArena := make([]clRef, padded)
	off := 0
	for l := range rs.occ {
		n := int(occCnt[l])
		rs.occ[l] = occArena[off : off : off+occPad(n)]
		off += occPad(n)
	}
	for _, lits := range clauses {
		rs.addClause(lits)
		if rs.unsat {
			return Result{Units: rs.units, Unsat: true}
		}
	}
	rs.propagateUnits()

	// Subsume and strengthen to a fixpoint, then eliminate variables;
	// each elimination queues its resolvents for further subsumption, so
	// alternate until neither pass changes anything.
	rs.processSubsumption()
	for !rs.unsat && rs.eliminateVars() {
	}

	res := Result{Units: rs.units, Unsat: rs.unsat}
	if !rs.unsat {
		res.Clauses = make([][]Lit, 0, len(rs.cls))
		for ci := range rs.cls {
			if !rs.cls[ci].deleted {
				res.Clauses = append(res.Clauses, rs.litsOf(clRef(ci)))
			}
		}
	}
	p.Stats.ClausesOut = int64(len(res.Clauses))
	return res
}

// clRef references a working clause by index into runState.cls.
type clRef int32

// cl is one working clause header: its literals live in the run's arena
// at [off, off+n), kept sorted for two-pointer subset checks, with a
// variable-set signature as a subsumption prefilter. Strengthening
// compacts the literals in place and shrinks n.
type cl struct {
	off, n  int32
	sig     uint64
	deleted bool
	queued  bool // pending in the subsumption queue
}

func sigOf(lits []Lit) uint64 {
	var s uint64
	for _, l := range lits {
		s |= 1 << (uint(l.Var()) & 63)
	}
	return s
}

type runState struct {
	p        *Preprocessor
	arena    []Lit // every working clause's literals, contiguous
	cls      []cl
	occ      [][]clRef // indexed by literal; cleaned lazily
	occDirty []bool    // literal strengthened out of some clause since the list was last compacted
	assigns  []int8    // 0 undef, +1 true, -1 false
	units    []Lit
	pending  []Lit // units awaiting propagation
	subQueue []clRef
	subHead  int
	resBuf   []Lit   // resolvent scratch, reset per tryEliminate
	resEnds  []int32 // prefix ends into resBuf
	unsat    bool
	abort    func() bool
}

// litsOf returns the clause's current literal block in the arena. The
// view is invalidated by addClause (the arena may grow).
func (rs *runState) litsOf(ci clRef) []Lit {
	c := &rs.cls[ci]
	return rs.arena[c.off : c.off+c.n : c.off+c.n]
}

func (rs *runState) val(l Lit) int8 {
	v := rs.assigns[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

// addClause installs a clause — its literals copied into the arena and
// sorted, reduced against the current assignment — and queues it for
// subsumption.
func (rs *runState) addClause(lits []Lit) {
	off := int32(len(rs.arena))
	for _, l := range lits {
		switch rs.val(l) {
		case 1:
			rs.arena = rs.arena[:off] // satisfied: roll back
			return
		case -1:
			continue
		}
		rs.arena = append(rs.arena, l)
	}
	out := rs.arena[off:]
	sortLits(out)
	switch len(out) {
	case 0:
		rs.unsat = true
		return
	case 1:
		u := out[0]
		rs.arena = rs.arena[:off]
		rs.enqueueUnit(u)
		return
	}
	ci := clRef(len(rs.cls))
	rs.cls = append(rs.cls, cl{off: off, n: int32(len(out)), sig: sigOf(out)})
	for _, l := range out {
		rs.occ[l] = append(rs.occ[l], ci)
	}
	rs.queueSub(ci)
}

func sortLits(ls []Lit) {
	// Insertion sort: clauses are short and often nearly sorted.
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func (rs *runState) queueSub(ci clRef) {
	if !rs.cls[ci].queued {
		rs.cls[ci].queued = true
		rs.subQueue = append(rs.subQueue, ci)
	}
}

func (rs *runState) enqueueUnit(l Lit) {
	switch rs.val(l) {
	case 1:
		return
	case -1:
		rs.unsat = true
		return
	}
	if l.Neg() {
		rs.assigns[l.Var()] = -1
	} else {
		rs.assigns[l.Var()] = 1
	}
	rs.units = append(rs.units, l)
	rs.pending = append(rs.pending, l)
}

// propagateUnits applies pending unit facts to the clause database:
// satisfied clauses are removed, falsified literals are stripped. Only
// live occurrences count: a clause strengthened past l keeps a stale
// entry in l's list, and l becoming true does not satisfy it.
func (rs *runState) propagateUnits() {
	for len(rs.pending) > 0 && !rs.unsat {
		l := rs.pending[0]
		rs.pending = rs.pending[1:]
		for _, ci := range rs.liveOcc(l) {
			rs.cls[ci].deleted = true
		}
		rs.occ[l] = nil
		neg := l.Not()
		for _, ci := range rs.liveOcc(neg) {
			if rs.cls[ci].deleted {
				continue
			}
			rs.removeLit(ci, neg)
			if rs.unsat {
				return
			}
		}
		rs.occ[neg] = nil
	}
}

// removeLit strengthens the clause by dropping l in place, handling the
// unit and empty cases, and re-queues the stronger clause for subsumption.
func (rs *runState) removeLit(ci clRef, l Lit) {
	c := &rs.cls[ci]
	lits := rs.arena[c.off : c.off+c.n]
	k := 0
	for _, q := range lits {
		if q != l {
			lits[k] = q
			k++
		}
	}
	c.n = int32(k)
	lits = lits[:k]
	c.sig = sigOf(lits)
	rs.occDirty[l] = true // occ[l] now holds a stale entry for ci
	switch k {
	case 0:
		rs.unsat = true
	case 1:
		c.deleted = true
		rs.enqueueUnit(lits[0])
	default:
		rs.queueSub(ci)
	}
}

// liveOcc compacts and returns the live occurrence list of l: clauses
// neither deleted nor strengthened past l (strengthening leaves stale
// occurrence entries behind rather than scanning them out eagerly). The
// clause's variable-set signature screens out most stale entries before
// the binary search: strengthening recomputes the signature, so a clause
// that lost l usually lost its bit too.
func (rs *runState) liveOcc(l Lit) []clRef {
	out := rs.occ[l][:0]
	if !rs.occDirty[l] {
		// No clause lost l since the last compaction, so every non-deleted
		// entry is live; skip the membership checks entirely.
		for _, ci := range rs.occ[l] {
			if !rs.cls[ci].deleted {
				out = append(out, ci)
			}
		}
		rs.occ[l] = out
		return out
	}
	bit := uint64(1) << (uint(l.Var()) & 63)
	for _, ci := range rs.occ[l] {
		c := &rs.cls[ci]
		if c.deleted || c.sig&bit == 0 {
			continue
		}
		if containsLit(rs.arena[c.off:c.off+c.n], l) {
			out = append(out, ci)
		}
	}
	rs.occ[l] = out
	rs.occDirty[l] = false // compacted: stale entries are gone
	return out
}

func containsLit(sorted []Lit, l Lit) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == l
}

// litNone is the "no literal" sentinel for subsumeMatch.
const litNone Lit = -1

// subsumeMatch reports whether a ⊆ b allowing at most one literal of a to
// occur complemented in b (both sorted, tautology-free). flip is that
// literal, or litNone when a is an outright subset: a subsumes b when
// flip == litNone, and otherwise resolving a against b on flip's variable
// strengthens b by ¬flip. A literal and its complement are adjacent in
// the order (2v, 2v+1), so one two-pointer walk checks both cases.
func subsumeMatch(a, b []Lit) (ok bool, flip Lit) {
	if len(a) > len(b) {
		return false, litNone
	}
	flip = litNone
	j := 0
	for _, l := range a {
		base := l &^ 1
		for j < len(b) && b[j] < base {
			j++
		}
		if j == len(b) {
			return false, litNone
		}
		switch b[j] {
		case l:
		case l.Not():
			if flip != litNone {
				return false, litNone
			}
			flip = l
		default:
			return false, litNone
		}
		j++
	}
	return true, flip
}

// processSubsumption drains the queue: each queued clause removes the
// clauses it subsumes and strengthens the clauses it self-subsumes. Both
// effects are found in one scan (MiniSat-simp style): any clause d that c
// subsumes or strengthens must contain c's best (rarest) variable in one
// polarity or the other, so scanning that variable's two occurrence lists
// with the combined subsumeMatch check covers everything — instead of one
// occurrence-list sweep per literal of c, which was the preprocessing
// CPU hotspot at fleet scale.
func (rs *runState) processSubsumption() {
	rs.propagateUnits()
	for rs.subHead < len(rs.subQueue) && !rs.unsat {
		rs.propagateUnits()
		if rs.unsat {
			return
		}
		ci := rs.subQueue[rs.subHead]
		rs.subHead++
		rs.cls[ci].queued = false
		if rs.cls[ci].deleted || rs.cls[ci].n == 0 {
			continue
		}
		if rs.subHead == len(rs.subQueue) {
			// Queue drained: reset so the backing array is reused.
			rs.subQueue = rs.subQueue[:0]
			rs.subHead = 0
		}

		// Pick the variable with the fewest occurrences over both
		// polarities among c's literals.
		clits := rs.litsOf(ci)
		best := clits[0]
		bestLen := len(rs.occ[best]) + len(rs.occ[best.Not()])
		for _, l := range clits[1:] {
			if n := len(rs.occ[l]) + len(rs.occ[l.Not()]); n < bestLen {
				best, bestLen = l, n
			}
		}
		csig := rs.cls[ci].sig
		for _, p := range [2]Lit{best, best.Not()} {
			if rs.cls[ci].deleted {
				break
			}
			for _, di := range rs.liveOcc(p) {
				if di == ci || rs.cls[di].deleted {
					continue
				}
				if csig&^rs.cls[di].sig != 0 {
					continue
				}
				ok, flip := subsumeMatch(clits, rs.litsOf(di))
				if !ok {
					continue
				}
				if flip == litNone {
					rs.cls[di].deleted = true
					rs.p.Stats.ClausesSubsumed++
					continue
				}
				rs.removeLit(di, flip.Not())
				rs.p.Stats.LitsStrengthened++
				if rs.unsat {
					return
				}
			}
		}
	}
}

// resolveInto appends the resolvent of a (containing v positively) and b
// (containing v negatively), both sorted, to resBuf; ok is false for
// tautologies (resBuf is rolled back). n is the resolvent's length.
func (rs *runState) resolveInto(a, b []Lit, v int32) (n int, ok bool) {
	start := len(rs.resBuf)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var l Lit
		switch {
		case i == len(a):
			l = b[j]
			j++
		case j == len(b):
			l = a[i]
			i++
		case a[i] <= b[j]:
			l = a[i]
			i++
		default:
			l = b[j]
			j++
		}
		if l.Var() == v {
			continue
		}
		if k := len(rs.resBuf); k > start {
			if rs.resBuf[k-1] == l {
				continue // duplicate
			}
			if rs.resBuf[k-1] == l.Not() {
				rs.resBuf = rs.resBuf[:start]
				return 0, false // tautology
			}
		}
		rs.resBuf = append(rs.resBuf, l)
	}
	return len(rs.resBuf) - start, true
}

// eliminateVars makes one ascending pass over the variables, eliminating
// each one whose clause distribution does not grow the database. Returns
// whether anything changed.
func (rs *runState) eliminateVars() bool {
	changed := false
	for v := int32(0); int(v) < len(rs.p.frozen); v++ {
		if rs.unsat {
			return changed
		}
		if rs.abort != nil && rs.abort() {
			return false
		}
		if rs.p.frozen[v] || rs.p.elim[v] || rs.assigns[v] != 0 {
			continue
		}
		if rs.tryEliminate(v) {
			changed = true
		}
	}
	return changed
}

func (rs *runState) tryEliminate(v int32) bool {
	pos := rs.liveOcc(MkLit(v, false))
	neg := rs.liveOcc(MkLit(v, true))
	if len(pos)+len(neg) == 0 {
		return false // unconstrained; leave to the search
	}
	if len(pos) > occLim && len(neg) > occLim {
		return false
	}
	if len(pos)*len(neg) > pairLim {
		return false
	}
	limit := len(pos) + len(neg) // grow = 0
	rs.resBuf = rs.resBuf[:0]
	rs.resEnds = rs.resEnds[:0]
	for _, pc := range pos {
		for _, nc := range neg {
			n, ok := rs.resolveInto(rs.litsOf(pc), rs.litsOf(nc), v)
			if !ok {
				continue
			}
			if n > clauseLim {
				return false
			}
			rs.resEnds = append(rs.resEnds, int32(len(rs.resBuf)))
			if len(rs.resEnds) > limit {
				return false
			}
		}
	}

	// Commit: record and remove the variable's clauses, then distribute.
	// The record copies the literals into its own compact buffer — the
	// run's arena is transient, the reconstruction stack is not.
	words := 0
	for _, ci := range pos {
		words += int(rs.cls[ci].n)
	}
	for _, ci := range neg {
		words += int(rs.cls[ci].n)
	}
	rec := elimRecord{
		v:    v,
		flat: make([]Lit, 0, words),
		ends: make([]int32, 0, len(pos)+len(neg)),
	}
	for _, ci := range pos {
		rec.flat = append(rec.flat, rs.litsOf(ci)...)
		rec.ends = append(rec.ends, int32(len(rec.flat)))
		rs.cls[ci].deleted = true
	}
	for _, ci := range neg {
		rec.flat = append(rec.flat, rs.litsOf(ci)...)
		rec.ends = append(rec.ends, int32(len(rec.flat)))
		rs.cls[ci].deleted = true
	}
	rs.occ[MkLit(v, false)] = nil
	rs.occ[MkLit(v, true)] = nil
	rs.p.recIdx[v] = len(rs.p.records)
	rs.p.records = append(rs.p.records, rec)
	rs.p.elim[v] = true
	rs.p.Stats.VarsEliminated++
	start := int32(0)
	for _, end := range rs.resEnds {
		rs.addClause(rs.resBuf[start:end])
		start = end
		if rs.unsat {
			return true
		}
	}
	rs.processSubsumption()
	return true
}
