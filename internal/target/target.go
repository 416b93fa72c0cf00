// Package target implements Pardinus-style target-oriented model
// finding over the incremental SAT layer: given a satisfiable clause
// set and a list of soft target literals (polarity = desired value),
// Minimize finds a model at minimal Hamming distance to the target.
//
// This is the solver mediation behind the paper's minimal-edit feedback
// (Sec. 4.3): each soft-constrained configuration knob contributes one
// target literal, and the model returned deviates from the
// administrator's preferences in as few knobs as possible.
//
// The distance bound is maintained by a truncated totalizer cardinality
// encoding over the mismatch literals (totalizer.go); the encoding is
// built once and every later bound tightening reuses its clauses. Its
// truncation is the distance of a core-tightened first model (relax):
// assumption probes relax disjoint failed-assumption cores of the soft
// set until the rest is satisfiable, which both lowers the distance the
// counter must express and proves a lower bound on the minimum (the
// disjoint-core bound of core-guided MaxSAT, Fu & Malik 2006). Two search
// strategies then drive the bound: linear descent (solve, count, assert
// ≤ d−1, repeat) and binary search on the bound between the lower bound
// and the tightened distance. Both interact with the solver only through
// added clauses and assumptions, so they compose with prior incremental
// state (hardened assumptions, learnt clauses).
package target

import (
	"context"

	"muppet/internal/sat"
)

// StopReason explains why a Minimize run stopped before proving its
// result optimal. StopNone means the run completed: either optimality was
// proved or the hard clauses are unsatisfiable.
type StopReason int

const (
	// StopNone: the run completed normally.
	StopNone StopReason = iota
	// StopCancelled: Options.Context was cancelled.
	StopCancelled
	// StopDeadline: Options.Budget's wall-clock deadline passed.
	StopDeadline
	// StopConflicts: the run's conflict budget was exhausted.
	StopConflicts
	// StopPropagations: the run's propagation budget was exhausted.
	StopPropagations
	// StopMaxSolves: Options.MaxSolves probes were issued.
	StopMaxSolves
)

func (r StopReason) String() string {
	switch r {
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline exceeded"
	case StopConflicts:
		return "conflict budget exhausted"
	case StopPropagations:
		return "propagation budget exhausted"
	case StopMaxSolves:
		return "solve budget exhausted"
	default:
		return "none"
	}
}

// FromSat converts a solver-level stop reason.
func FromSat(r sat.StopReason) StopReason {
	switch r {
	case sat.StopCancelled:
		return StopCancelled
	case sat.StopDeadline:
		return StopDeadline
	case sat.StopConflicts:
		return StopConflicts
	case sat.StopPropagations:
		return StopPropagations
	default:
		return StopNone
	}
}

// Strategy selects the distance-bound search schedule.
type Strategy int

const (
	// StrategyAuto uses the package default (see SetDefaultStrategy) —
	// the zero value, so callers passing Options{} follow the CLI flag.
	StrategyAuto Strategy = iota
	// StrategyLinear descends one SAT model at a time: solve, count
	// mismatches d, assert ≤ d−1, repeat until UNSAT. Each probe's bound
	// is asserted permanently, so learnt clauses compound.
	StrategyLinear
	// StrategyBinary bisects the bound between the proved lower bound and
	// the best distance found, probing each midpoint under an assumption
	// so failed (UNSAT) probes retract cleanly.
	StrategyBinary
)

func (st Strategy) String() string {
	switch st {
	case StrategyLinear:
		return "linear"
	case StrategyBinary:
		return "binary"
	default:
		return "auto"
	}
}

// ParseStrategy converts a CLI flag value into a Strategy.
func ParseStrategy(s string) (Strategy, bool) {
	switch s {
	case "", "auto":
		return StrategyAuto, true
	case "linear":
		return StrategyLinear, true
	case "binary":
		return StrategyBinary, true
	}
	return StrategyAuto, false
}

// defaultStrategy resolves StrategyAuto. Linear descent is the default:
// core relaxation already narrows the search range to [lb, tightened
// distance], and each SAT step makes real progress (EXPERIMENTS.md
// §Ablations).
var defaultStrategy = StrategyLinear

// SetDefaultStrategy changes what StrategyAuto resolves to (wired to the
// muppet CLI's -strategy flag). It returns the previous default.
func SetDefaultStrategy(st Strategy) Strategy {
	prev := defaultStrategy
	if st == StrategyAuto {
		st = StrategyLinear
	}
	defaultStrategy = st
	return prev
}

// Options tune one Minimize run. The zero value is the recommended
// default configuration.
type Options struct {
	// Strategy selects the bound search schedule; StrategyAuto follows
	// the package default.
	Strategy Strategy
	// MaxSolves, when positive, bounds the total number of Solve calls.
	// On exhaustion Minimize degrades gracefully: it returns the best
	// model found so far with Optimal == false instead of hanging.
	MaxSolves int
	// Context, when non-nil, cancels the run between and during probes.
	Context context.Context
	// Budget bounds the whole run's solver work (the conflict and
	// propagation caps are shared across probes, not per probe). On
	// exhaustion Minimize degrades like MaxSolves: best model so far,
	// Optimal == false, the cause recorded in Stats.Stop.
	Budget sat.Budget
	// Assumptions are threaded into every solver probe, so Minimize can
	// run against a retractable constraint set (selector-guarded groups)
	// instead of requiring the caller to harden it into clauses first.
	Assumptions []sat.Lit
	// Retractable makes linear descent cap the distance with assumption
	// literals instead of permanently asserted unit clauses, leaving the
	// clause set reusable for later solves on the same session. The
	// totalizer clauses themselves are still added permanently — they are
	// one-directional definitions, satisfiable under any assignment of the
	// inputs, so they never constrain later runs. Binary search is
	// retractable by construction.
	Retractable bool
	// Encoder, when non-nil, memoises the totalizer encoding across
	// Minimize calls on the same solver. Without it every call emits a
	// fresh O(n·d) cardinality encoding permanently into the session, so
	// a long-lived reused session accumulates dead clauses linearly in
	// the number of minimisations — the cache keeps the clause set flat.
	// Requires retractable probing (Retractable or StrategyBinary): a
	// permanently asserted cap would poison the cached encoder for every
	// later run.
	Encoder *EncoderCache
	// Canonical, after a proved-minimal Sat result, replaces the model
	// with the unique lexicographically-preferred minimal model: scanning
	// the soft literals in order, each is pinned to its desired polarity
	// whenever some model at the minimal distance, consistent with the
	// pins so far, allows it. The result then depends only on the clause
	// set — never on solver heuristic state (learnt clauses, activities,
	// saved phases) — so a warm, reused session returns byte-identical
	// models to a cold one, and repeated identical queries are idempotent
	// (what a long-lived mediation daemon must guarantee). Costs at most
	// ~2·distance extra assumption probes plus one confirming solve.
	// Requires retractable probing, like Encoder. Degraded (non-Optimal)
	// results are left as found: they are budget-starved already.
	Canonical bool
	// OnStep, when non-nil, observes every solver probe as it happens.
	OnStep func(Step)
}

// Step describes one solver probe during minimisation, for the OnStep
// observability hook.
type Step struct {
	Solve int // 1-based probe index
	// Bound is the distance cap in effect; -1 marks an uncapped probe (the
	// first solve and the core-relaxation probes that follow it).
	Bound    int
	Status   sat.Status // probe outcome
	Distance int        // model distance (valid when Status == Sat)
}

// Stats records the work one Minimize run performed.
type Stats struct {
	Solves    int   // SAT probes issued
	Conflicts int64 // solver conflicts attributable to this run
	Bounds    []int // bound trajectory, one entry per probe (-1 uncapped)
	// Stop records why the run gave up before proving optimality
	// (StopNone when it ran to completion). When Result.Status is Sat and
	// Stop is not StopNone, Result.Model is the best model found before
	// the interruption and Result.Optimal is false — except with
	// Options.Canonical, where Stop may be set with Optimal still true:
	// the distance was proved minimal and only the canonicalization
	// tie-break was cut short.
	Stop StopReason
}

// Result is the outcome of a Minimize run.
type Result struct {
	// Status is Sat when a model was found, Unsat when the hard clauses
	// admit none, Unknown when the solver gave up before a first model.
	Status sat.Status
	// Model is the closest model found (valid when Status == Sat),
	// indexed by solver variable like sat.Solver.Model.
	Model []bool
	// Distance is the achieved Hamming distance from Model to the soft
	// targets (valid when Status == Sat).
	Distance int
	// Optimal reports whether Distance was proved globally minimal; it
	// is false only when a budget or cancellation stopped the search
	// early (the cause is in Stats.Stop).
	Optimal bool
	// Stats carries per-run search counters.
	Stats Stats
}

// Minimize searches for a model of s minimising the number of falsified
// soft literals (the Hamming distance to the target assignment each
// literal's polarity encodes). The solver is driven incrementally:
// clauses (totalizer + permanent bounds) may be added, but the final
// internal solver model always matches Result.Model, so callers that
// decode state from the solver afterwards (e.g. relational instance
// extraction) see the minimised model. Duplicate and even contradictory
// soft literals (l and ¬l both soft) are permitted; a contradictory pair
// simply contributes an unavoidable unit of distance.
func Minimize(s *sat.Solver, soft []sat.Lit, opts Options) Result {
	st := opts.Strategy
	if st == StrategyAuto {
		st = defaultStrategy
	}
	r := Result{}
	// Soft literals are probed as assumptions and read back from every
	// model; they must keep their identity through CNF preprocessing.
	for _, l := range soft {
		s.FreezeLit(l)
	}
	for _, l := range opts.Assumptions {
		s.FreezeLit(l)
	}
	startConflicts := s.Stats.Conflicts
	startProps := s.Stats.Propagations

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// The budget's caps cover the whole run, so each probe receives what
	// remains of them. remaining reports the exhausted cap, if any.
	remaining := func() (sat.Budget, StopReason) {
		b := sat.Budget{Deadline: opts.Budget.Deadline}
		if opts.Budget.MaxConflicts > 0 {
			left := opts.Budget.MaxConflicts - (s.Stats.Conflicts - startConflicts)
			if left <= 0 {
				return b, StopConflicts
			}
			b.MaxConflicts = left
		}
		if opts.Budget.MaxPropagations > 0 {
			left := opts.Budget.MaxPropagations - (s.Stats.Propagations - startProps)
			if left <= 0 {
				return b, StopPropagations
			}
			b.MaxPropagations = left
		}
		return b, StopNone
	}

	probe := func(bound int, assumps ...sat.Lit) sat.Status {
		b, stop := remaining()
		if stop != StopNone {
			r.Stats.Stop = stop
			return sat.Unknown
		}
		// Target-phase saving: re-seed the solver's saved phases from the
		// best model so far, then bias every soft knob toward its target
		// polarity. The tightened-bound search re-descends from the
		// previous near-optimal assignment (most decisions re-establish it
		// via phase saving) instead of re-exploring from the root — the
		// descent analogue of Pardinus' target-oriented polarity mode.
		if r.Model != nil {
			s.SetPhases(r.Model)
			for _, l := range soft {
				s.SetPhaseLit(l)
			}
		}
		all := assumps
		if len(opts.Assumptions) > 0 {
			all = make([]sat.Lit, 0, len(opts.Assumptions)+len(assumps))
			all = append(all, opts.Assumptions...)
			all = append(all, assumps...)
		}
		status := s.SolveCtx(ctx, b, all...)
		if status == sat.Unknown {
			r.Stats.Stop = FromSat(s.StopReason())
		}
		r.Stats.Solves++
		r.Stats.Bounds = append(r.Stats.Bounds, bound)
		step := Step{Solve: r.Stats.Solves, Bound: bound, Status: status}
		if status == sat.Sat {
			step.Distance = distance(s.Model(), soft)
		}
		if opts.OnStep != nil {
			opts.OnStep(step)
		}
		return status
	}
	budgetLeft := func() bool {
		if opts.MaxSolves > 0 && r.Stats.Solves >= opts.MaxSolves {
			r.Stats.Stop = StopMaxSolves
			return false
		}
		return true
	}
	finish := func() Result {
		r.Stats.Conflicts = s.Stats.Conflicts - startConflicts
		return r
	}

	// First model: unbounded solve against the hard clauses alone.
	if !budgetLeft() {
		r.Status = sat.Unknown
		return finish()
	}
	if st0 := probe(-1); st0 != sat.Sat {
		r.Status = st0
		return finish()
	}
	r.Status = sat.Sat
	r.Model = s.Model()
	r.Distance = distance(r.Model, soft)
	if r.Distance == 0 {
		// Already on target; no encoding or search needed.
		r.Optimal = true
		return finish()
	}

	retractable := opts.Retractable || st == StrategyBinary
	canonical := opts.Canonical && retractable
	// truncation is the counter width a best distance d needs. The
	// canonical pass caps probes at the *achieved* distance, so the
	// counter must express ≤ d even when no descent step happens:
	// truncate one level later.
	truncation := func(d int) int {
		if canonical && d < len(soft) {
			return d + 1
		}
		return d
	}

	// A session whose cached counter already covers the first model's
	// distance (the warm path) descends on it directly. Otherwise the
	// first model is core-tightened before a counter is sized to it.
	cached := opts.Encoder != nil && retractable
	var enc *cachedEncoder
	if cached {
		enc = opts.Encoder.lookup(soft)
	}
	lb := 0
	if !enc.covers(truncation(r.Distance)) {
		var done bool
		if lb, done = relax(s, soft, &r, probe, budgetLeft); !done {
			return finish() // stopped: Optimal stays false (see relax)
		}
		if r.Distance == 0 || (lb == r.Distance && !canonical) {
			// Nothing left to search, and no canonical pass needs a cap.
			r.Optimal = true
			return finish()
		}
	}
	var tot *totalizer
	if cached {
		tot = opts.Encoder.get(s, soft, enc, truncation(r.Distance))
	} else {
		tot = newTotalizer(s, mismatches(soft), truncation(r.Distance))
	}

	// Both strategies stop at lb, so when the disjoint cores already prove
	// the tightened distance minimal they issue no probe.
	switch st {
	case StrategyBinary:
		binarySearch(s, soft, tot, &r, lb, probe, budgetLeft)
	default:
		linearDescent(s, soft, tot, &r, lb, probe, budgetLeft, opts.Retractable)
	}
	if canonical && r.Status == sat.Sat && r.Optimal && r.Distance > 0 {
		canonicalize(s, soft, tot, &r, probe, budgetLeft)
	}
	return finish()
}

// relax tightens the first model before a counter is sized to it. Each
// step probes with every not-yet-relaxed soft literal assumed at its
// target. An UNSAT probe relaxes the soft positions its failed-assumption
// core names (core members that are not soft, i.e. Options.Assumptions,
// stay assumed); a SAT probe ends the loop. The relaxed sets are pairwise
// disjoint cores, each of which every model misses at least once, so
// their count lb is a proved lower bound on the minimal distance, and the
// loop issues lb+1 probes (plus the one below, when needed).
//
// The SAT model misses only relaxed positions. It replaces the first
// model unless it misses more than the first model's distance, which
// large cores make possible: then one more probe, assuming the soft
// literals the first model satisfies, finds a model no farther than the
// first. Either way the solver's retained model ends equal to r.Model,
// since UNSAT and stopped probes leave it untouched. done is false when a
// budget, MaxSolves or cancellation stopped a probe; r is then the plain
// first model — except when the stop hit that extra probe, where r takes
// the retained relaxation model so the two still agree.
func relax(s *sat.Solver, soft []sat.Lit, r *Result,
	probe func(int, ...sat.Lit) sat.Status, budgetLeft func() bool) (lb int, done bool) {
	relaxed := make([]bool, len(soft))
	assumps := make([]sat.Lit, 0, len(soft))
	inCore := make(map[sat.Lit]bool)
	for {
		if !budgetLeft() {
			return lb, false
		}
		assumps = assumps[:0]
		for i, l := range soft {
			if !relaxed[i] {
				assumps = append(assumps, l)
			}
		}
		switch probe(-1, assumps...) {
		case sat.Sat:
			return lb, adopt(s, soft, r, assumps, probe, budgetLeft)
		case sat.Unsat:
		default:
			return lb, false
		}
		clear(inCore)
		for _, l := range s.Core() {
			inCore[l] = true
		}
		grew := false
		for i, l := range soft {
			if !relaxed[i] && inCore[l] {
				relaxed[i] = true
				grew = true
			}
		}
		if !grew {
			// Only a core of Options.Assumptions alone relaxes nothing,
			// and those were satisfiable with the first model. Fail safe:
			// keep the first model and the bound proved so far.
			return lb, true
		}
		lb++
	}
}

// adopt takes the model of relaxation's SAT probe as r's best when it is
// no farther than r's, and otherwise re-establishes a model at most as far
// as r's (see relax). scratch is reused for the extra probe's assumptions.
func adopt(s *sat.Solver, soft []sat.Lit, r *Result, scratch []sat.Lit,
	probe func(int, ...sat.Lit) sat.Status, budgetLeft func() bool) (done bool) {
	m := s.Model()
	d := distance(m, soft)
	if d <= r.Distance {
		r.Model, r.Distance = m, d
		return true
	}
	if budgetLeft() {
		kept := scratch[:0]
		for _, l := range soft {
			if r.Model[l.Var()] != l.Neg() {
				kept = append(kept, l)
			}
		}
		// r.Model witnesses these assumptions, so the probe is SAT unless
		// stopped.
		if probe(-1, kept...) == sat.Sat {
			r.Model = s.Model()
			r.Distance = distance(r.Model, soft)
			return true
		}
	}
	r.Model, r.Distance = m, d
	return false
}

// canonicalize pins the soft projection of a proved-minimal model to the
// unique lexicographically-preferred one (Options.Canonical). Every probe
// keeps the distance capped at the proved minimum, so the scan only ever
// chooses among equally-optimal models. Soft literals the current model
// already satisfies are pinned without a solver call; only currently
// mismatched literals cost a probe (Sat adopts a lex-better model, Unsat
// pins the mismatch as unavoidable), so the pass issues at most ~2·d
// probes. No final re-solve is needed: Unsat probes leave the solver's
// retained model untouched, so it always equals the adopted model.
func canonicalize(s *sat.Solver, soft []sat.Lit, tot *totalizer, r *Result,
	probe func(int, ...sat.Lit) sat.Status, budgetLeft func() bool) {
	pins := make([]sat.Lit, 0, len(soft)+1)
	if capLit, ok := tot.atMostLit(r.Distance); ok {
		pins = append(pins, capLit)
	} else if r.Distance < len(soft) {
		// Cannot happen: the truncation covers [0, distance]; a cap is
		// absent only when every soft literal mismatches (vacuous). Fail
		// safe rather than probe uncapped.
		return
	}
	model := r.Model
scan:
	for _, l := range soft {
		if model[l.Var()] != l.Neg() {
			// Already at the desired polarity: consistent with the current
			// model, pin for free.
			pins = append(pins, l)
			continue
		}
		if !budgetLeft() {
			break
		}
		// Full-capacity slice so later appends to pins cannot alias.
		switch probe(r.Distance, append(pins[:len(pins):len(pins)], l)...) {
		case sat.Sat:
			model = s.Model()
			pins = append(pins, l)
		case sat.Unsat:
			pins = append(pins, l.Not())
		default:
			// Interrupted (Stats.Stop says why): keep the lex-best model
			// found so far. Optimal stays true — the distance is proved
			// minimal, only the tie-break is incomplete.
			break scan
		}
	}
	r.Model = model
	r.Distance = distance(model, soft)
}

// linearDescent repeatedly caps "distance ≤ current − 1" and re-solves;
// UNSAT, or reaching the proved lower bound lb, proves the current
// distance minimal. The cap is a permanently asserted unit clause by
// default (learnt clauses compound across probes), or an assumption
// literal in retractable mode (the session stays clean).
func linearDescent(s *sat.Solver, soft []sat.Lit, tot *totalizer, r *Result, lb int,
	probe func(int, ...sat.Lit) sat.Status, budgetLeft func() bool, retractable bool) {
	for r.Distance > lb {
		if !budgetLeft() {
			return // best-so-far, Optimal stays false
		}
		var caps []sat.Lit
		if retractable {
			capLit, ok := tot.atMostLit(r.Distance - 1)
			if !ok {
				// Beyond the truncated range; cannot happen since the
				// encoder covers [0, tightened distance), but fail safe.
				return
			}
			caps = []sat.Lit{capLit}
		} else if !tot.assertAtMost(s, r.Distance-1) {
			// Level-0 conflict while asserting the bound: nothing below
			// the current distance exists.
			r.Optimal = true
			return
		}
		switch probe(r.Distance-1, caps...) {
		case sat.Sat:
			r.Model = s.Model()
			r.Distance = distance(r.Model, soft)
		case sat.Unsat:
			r.Optimal = true
			// The solver's retained model is the last SAT one == r.Model.
			return
		default:
			// Interrupted mid-descent (Stats.Stop says why): degrade to
			// the best model found so far, Optimal stays false.
			return
		}
	}
	r.Optimal = true
}

// binarySearch bisects the bound in [lo, hi) where hi is the best
// achieved distance and lo the smallest not-yet-excluded distance,
// starting from the proved lower bound lb. Probes assume the cap rather
// than asserting it, so an UNSAT probe leaves the clause set
// unconstrained for the next (higher) midpoint.
func binarySearch(s *sat.Solver, soft []sat.Lit, tot *totalizer, r *Result, lo int,
	probe func(int, ...sat.Lit) sat.Status, budgetLeft func() bool) {
	for lo < r.Distance {
		mid := lo + (r.Distance-lo)/2 // mid < r.Distance: probe is a strict improvement
		capLit, ok := tot.atMostLit(mid)
		if !ok {
			// mid is beyond the truncated range; cannot happen since the
			// encoder covers [0, tightened distance), but fail safe.
			return
		}
		if !budgetLeft() {
			return
		}
		switch probe(mid, capLit) {
		case sat.Sat:
			r.Model = s.Model()
			r.Distance = distance(r.Model, soft) // ≤ mid < previous best
		case sat.Unsat:
			lo = mid + 1
		default:
			return
		}
	}
	r.Optimal = true
	// The last SAT probe produced the best model, so the solver's
	// retained model matches r.Model even if later probes were UNSAT.
}

// mismatches returns the counter's inputs: soft literal false ⇔ one unit
// of distance.
func mismatches(soft []sat.Lit) []sat.Lit {
	mism := make([]sat.Lit, len(soft))
	for i, l := range soft {
		mism[i] = l.Not()
	}
	return mism
}

// distance counts falsified soft literals under a model.
func distance(model []bool, soft []sat.Lit) int {
	d := 0
	for _, l := range soft {
		if model[l.Var()] == l.Neg() {
			d++
		}
	}
	return d
}
