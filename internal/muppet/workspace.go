package muppet

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"muppet/internal/boolcirc"
	"muppet/internal/encode"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/target"
	"muppet/internal/ucore"
)

// partySpec selects how a party participates in one solving workspace.
type partySpec struct {
	party        *Party
	enforceFixed bool // enforce the offer's fixed knobs (via selectors)
	includeGoals bool // assert the party's goals (via selectors)
}

// workspace is one solving context: bounds with every configurable tuple
// free, goals and fixed-knob groups attached to retractable selector
// literals (so unsat cores can blame them), and soft-knob target literals
// for minimal-edit search.
//
// A workspace can be reusable (owned by a SolveCache): its session then
// survives across calls, and reset re-derives the per-call state — goal
// literals hit the translator's caches, unchanged fixed-knob groups reuse
// their memoised selectors, and only genuinely new constraints are ground.
// The bounds are bound once, when the workspace is built, from each
// party's bindDomain: they are configuration-independent (lower empty,
// upper everything), which is what makes one persistent session per
// workspace shape sound. A call's offers reach the workspace only through
// knob classification.
type workspace struct {
	sys   *encode.System
	ss    *relational.Session
	specs []partySpec
	// knobs[i] holds specs[i]'s knobs as the latest populate classified
	// them; reset reuses the storage.
	knobs [][]encode.KnobInfo

	// reusable marks a cache-owned workspace: run must leave the clause
	// set clean (assumption-based minimisation, no hardening).
	reusable bool
	// fixedSels memoises config-group selectors by group content, so a
	// group unchanged since the last call reuses its selector and clauses.
	fixedSels map[string]sat.Lit
	// enc memoises totalizer encodings across minimize calls, keeping the
	// clause set of a long-lived session flat instead of growing by one
	// cardinality encoding per minimisation (allocated lazily, reusable
	// workspaces only — one-shot workspaces are discarded after one run).
	enc *target.EncoderCache

	named    []ucore.Named // goal + config-group selectors
	assumps  []sat.Lit
	softLits []sat.Lit // literal polarity == desired value
	softInfo []softRef

	// rawCore snapshots the failed assumptions of the most recent Unsat
	// solve, so core() can still name blame when the minimisation pass
	// itself runs out of budget.
	rawCore []sat.Lit

	// lastUsed is the owning SolveCache's logical clock at the most recent
	// use, ordering LRU eviction. Unused (zero) on one-shot workspaces.
	lastUsed int64

	// groupsKept and groupsNew count, cumulatively across this session's
	// lifetime, the selector-guarded config groups reused verbatim (memo
	// hits in enforceFixed) vs. ground fresh. A delta rebase brackets a
	// workflow call with probes of these to report how much of the warm
	// CNF one revision step kept.
	groupsKept int64
	groupsNew  int64
}

type softRef struct {
	party *Party
	info  encode.KnobInfo
}

func newWorkspace(sys *encode.System, specs []partySpec, reusable bool) *workspace {
	// Bind every party's relations before the session is built: the
	// translator allocates its relation variables eagerly at construction.
	b := sys.NewBounds()
	for _, sp := range specs {
		sp.party.bindDomain(b)
	}
	ws := &workspace{
		sys:       sys,
		specs:     specs,
		knobs:     make([][]encode.KnobInfo, len(specs)),
		reusable:  reusable,
		fixedSels: make(map[string]sat.Lit),
	}
	cfg := EncodingConfig()
	satOpts := sat.Options{DisableSimp: cfg.NoPreprocess}
	if !reusable {
		// A one-shot workspace hardens its whole problem before the first
		// Solve, so preprocessing runs unconditionally there: once, early,
		// on the complete database — its cheapest and most effective point.
		// Deferring it behind a size floor mis-fires badly (a pass landing
		// mid-minimisation on a grown database costs 3× more, and payoff
		// tracks search difficulty, not clause count: a one-shot reconcile
		// of the seed-42 sweep scenario takes 43 ms with or without the
		// pass at services=12, but 161 ms with it vs 299 ms without at
		// services=24; DESIGN §11), while the worst case of always running
		// it is a few ms at walkthrough scale. Cache-owned sessions keep the
		// solver's default floor: small warm sessions skip the pass, large
		// ones amortise it across queries.
		satOpts.SimpMinClauses = -1
	}
	ws.ss = relational.NewSessionWithOptions(b,
		boolcirc.New(),
		sat.NewWithOptions(satOpts),
		boolcirc.CNFOptions{NoPolarity: cfg.NoPolarity})
	ws.populate()
	return ws
}

// Encoding is the package-wide encoding pipeline configuration for
// workflow solves. The zero value — polarity-aware Tseitin and CNF
// preprocessing both on — is the default; the switches exist for
// ablation runs and as an escape hatch (wired to the muppet CLI's
// -encoding flag). It is stored atomically so concurrent workflow
// queries may read it while a test or the CLI configures it; it takes
// effect for workspaces built after the call.
type Encoding struct {
	// NoPolarity emits full Tseitin biconditionals for every gate.
	NoPolarity bool
	// NoPreprocess disables CNF preprocessing in the solver.
	NoPreprocess bool
}

const (
	encNoPolarity uint32 = 1 << iota
	encNoPreprocess
)

var encodingFlags atomic.Uint32

func (e Encoding) pack() uint32 {
	var f uint32
	if e.NoPolarity {
		f |= encNoPolarity
	}
	if e.NoPreprocess {
		f |= encNoPreprocess
	}
	return f
}

// SetEncoding installs the encoding configuration for subsequently built
// workspaces and returns the previous one.
func SetEncoding(e Encoding) Encoding {
	return unpackEncoding(encodingFlags.Swap(e.pack()))
}

// EncodingConfig reports the current encoding configuration.
func EncodingConfig() Encoding {
	return unpackEncoding(encodingFlags.Load())
}

func unpackEncoding(f uint32) Encoding {
	return Encoding{
		NoPolarity:   f&encNoPolarity != 0,
		NoPreprocess: f&encNoPreprocess != 0,
	}
}

// populate derives the per-call state from the parties' current offers and
// goals. On a fresh workspace everything grounds for the first time; on a
// reused one the translator and selector memos make it incremental.
func (ws *workspace) populate() {
	for i, sp := range ws.specs {
		if sp.includeGoals {
			for _, g := range sp.party.Goals {
				lit := ws.ss.Lit(g.Formula)
				ws.addNamed(sp.party.Name+"/"+g.Name, lit)
			}
		}
		ws.knobs[i] = sp.party.classify(ws.knobs[i])
		infos := ws.knobs[i]
		if sp.enforceFixed {
			ws.enforceFixed(sp.party, infos)
		}
		for j := range infos {
			ki := &infos[j]
			if ki.State != encode.StateSoft {
				continue
			}
			lit, ok := ws.ss.TupleLit(ki.Rel, ki.Tuple)
			if !ok {
				continue
			}
			if !ki.Desired {
				lit = lit.Not()
			}
			ws.softLits = append(ws.softLits, lit)
			ws.softInfo = append(ws.softInfo, softRef{party: sp.party, info: *ki})
		}
	}
}

// reset clears the per-call state and re-derives it from the parties'
// current offers, leaving the live session (bounds, circuit, CNF, learnt
// clauses) in place: it classifies each party's knobs and re-derives the
// goal, fixed-group and soft literals, but binds no bounds. Selectors of
// groups whose content changed simply stop being assumed; their guarded
// clauses go inert.
func (ws *workspace) reset() {
	ws.named = ws.named[:0]
	ws.assumps = ws.assumps[:0]
	ws.softLits = ws.softLits[:0]
	ws.softInfo = ws.softInfo[:0]
	ws.rawCore = nil
	ws.populate()
}

// enforceFixed groups a party's fixed knobs by (policy, field) and guards
// each group with one selector, giving blame at the granularity an
// administrator actually edits.
func (ws *workspace) enforceFixed(p *Party, infos []encode.KnobInfo) {
	type groupKey struct {
		policy string
		field  encode.Field
	}
	groups := make(map[groupKey][]encode.KnobInfo)
	var order []groupKey
	for _, ki := range infos {
		if ki.State != encode.StateFixed {
			continue
		}
		k := groupKey{ki.Knob.Policy, ki.Knob.Field}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ki)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].policy != order[j].policy {
			return order[i].policy < order[j].policy
		}
		return order[i].field < order[j].field
	})
	for _, k := range order {
		var lits []sat.Lit
		for _, ki := range groups[k] {
			lit, ok := ws.ss.TupleLit(ki.Rel, ki.Tuple)
			if !ok {
				continue
			}
			if !ki.Desired {
				lit = lit.Not()
			}
			lits = append(lits, lit)
		}
		// Memoise the selector by the group's exact content: a group
		// unchanged since a previous call (same knobs, same desired
		// values) reuses its selector and guarded clauses verbatim.
		var kb strings.Builder
		fmt.Fprintf(&kb, "%s/%s.%s:", p.Name, k.policy, k.field)
		for _, l := range lits {
			fmt.Fprintf(&kb, "%d;", l)
		}
		key := kb.String()
		sel, seen := ws.fixedSels[key]
		if seen {
			ws.groupsKept++
		} else {
			ws.groupsNew++
		}
		if !seen {
			sel = sat.PosLit(ws.ss.Solver().NewVar())
			// The selector is assumed across calls and named in cores;
			// preprocessing must not eliminate it between uses.
			ws.ss.Solver().FreezeLit(sel)
			for _, l := range lits {
				ws.ss.Solver().AddClause(sel.Not(), l)
			}
			ws.fixedSels[key] = sel
		}
		ws.addNamed(fmt.Sprintf("%s/config[%s.%s]", p.Name, k.policy, k.field), sel)
	}
}

func (ws *workspace) addNamed(name string, lit sat.Lit) {
	ws.named = append(ws.named, ucore.Named{Name: name, Lit: lit})
	ws.assumps = append(ws.assumps, lit)
}

// solve checks satisfiability under all named assumptions, within the
// given budget. Unknown means the budget or context stopped the solver:
// neither a model nor a core exists, and callers must not fabricate
// either (see stop for the reason).
func (ws *workspace) solve(ctx context.Context, b sat.Budget) sat.Status {
	st := ws.ss.SolveCtx(ctx, b, ws.assumps...)
	if st == sat.Unsat {
		ws.rawCore = ws.ss.Solver().Core()
	}
	return st
}

// stop reports why the most recent solver call gave up.
func (ws *workspace) stop() target.StopReason {
	return target.FromSat(ws.ss.Solver().StopReason())
}

// harden turns the named assumptions into permanent clauses, enabling
// minimisation (which solves without assumptions).
func (ws *workspace) harden() {
	for _, l := range ws.assumps {
		ws.ss.Solver().AddClause(l)
	}
}

// minimize finds the model closest to the soft-knob preferences, starting
// from the model of a Sat solve just before it. On a one-shot workspace,
// call after harden; on a reusable one the named assumptions are threaded
// into every probe, so the session's clause set stays clean for later
// calls. Distance bounds are always retractable and the result is always
// canonicalized: the returned model is the unique lexicographically-
// preferred minimal one, so one-shot, cached-cold and cached-warm runs of
// the same query yield byte-identical models — the idempotence a
// long-lived mediation daemon serves on top of. On budget exhaustion
// mid-search it degrades to the best model found (Result.Optimal false,
// Stats.Stop set).
func (ws *workspace) minimize(ctx context.Context, b sat.Budget) target.Result {
	opts := target.Options{Context: ctx, Budget: b, Retractable: true, Canonical: true}
	if ws.reusable {
		opts.Assumptions = ws.assumps
		if ws.enc == nil {
			ws.enc = target.NewEncoderCache()
		}
		opts.Encoder = ws.enc
	}
	return target.Minimize(ws.ss.Solver(), ws.softLits, opts)
}

// edits reports which soft preferences the current solver model overrides.
func (ws *workspace) edits(model []bool) []Edit {
	var out []Edit
	for i, lit := range ws.softLits {
		got := model[lit.Var()] != lit.Neg()
		if !got {
			ref := ws.softInfo[i]
			out = append(out, Edit{
				Party: ref.party.Name,
				Knob:  ref.info.Knob,
				Add:   !ref.info.Desired,
			})
		}
	}
	return out
}

// instance decodes the current model.
func (ws *workspace) instance() *relational.Instance { return ws.ss.Instance() }

// core extracts a minimised blame core over the named constraints. Call
// only after solve returned Unsat. If the minimisation pass runs out of
// budget before it can even re-establish unsatisfiability, the snapshot
// of the failed assumptions from that Unsat solve serves as an
// unminimised fallback, so a proven conflict is never reported blameless.
func (ws *workspace) core(ctx context.Context, b sat.Budget) []string {
	core := ucore.FindCtx(ctx, b, ws.ss.Solver(), ws.named)
	if core == nil {
		if ws.ss.Solver().StopReason() == sat.StopNone || len(ws.rawCore) == 0 {
			return nil
		}
		inRaw := make(map[sat.Lit]bool, len(ws.rawCore))
		for _, l := range ws.rawCore {
			inRaw[l] = true
		}
		for _, n := range ws.named {
			if inRaw[n.Lit] {
				core = append(core, n)
			}
		}
	}
	names := make([]string, len(core))
	for i, n := range core {
		names[i] = n.Name
	}
	sort.Strings(names)
	return names
}
