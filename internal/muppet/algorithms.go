package muppet

import (
	"context"
	"fmt"
	"strings"

	"muppet/internal/encode"
	"muppet/internal/envelope"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/target"
)

// Edit is one flip of a soft-constrained knob: the minimal-edit feedback
// of Sec. 4.3.
type Edit struct {
	Party string
	Knob  encode.Knob
	Add   bool // true: add the entry; false: remove it
}

func (e Edit) String() string {
	verb := "remove"
	if e.Add {
		verb = "add"
	}
	return fmt.Sprintf("%s: %s %s", e.Party, verb, e.Knob)
}

// Feedback explains a failed check: an unsatisfiable core naming the goals
// and configuration fragments in conflict (Sec. 4.3's "unsatisfiable core
// with blame information").
type Feedback struct {
	Core []string
}

func (f *Feedback) String() string {
	if f == nil || len(f.Core) == 0 {
		return "no feedback"
	}
	return "conflicting constraints:\n  " + strings.Join(f.Core, "\n  ")
}

// Result is the outcome of a consistency or reconciliation query.
type Result struct {
	OK bool
	// Indeterminate is set when a budget or cancellation stopped the
	// solver before it proved either satisfiability or unsatisfiability.
	// No instance, edits, or blame core are fabricated in that case: OK is
	// false and Feedback is nil, and Stop carries the cause.
	Indeterminate bool
	// Stop explains an Indeterminate result. It can also be non-None on an
	// OK result: the minimal-edit search was interrupted and Edits reflect
	// the best (valid but possibly non-minimal) completion found.
	Stop target.StopReason
	// Instance is a satisfying completion (valid when OK).
	Instance *relational.Instance
	// Edits lists soft preferences the solver had to override to succeed.
	Edits []Edit
	// Feedback carries blame on failure (never on an indeterminate stop).
	Feedback *Feedback
}

// run executes the shared solve → minimize pipeline of the completion
// workflows (Algs. 1–2, Fig. 8), degrading faithfully: an Unknown solve
// yields an indeterminate result rather than a fabricated unsat core or
// bogus edit blame. Minimisation starts from the solve's model, so a Sat
// solve always yields an OK result; a budget that runs out during
// minimisation leaves the best edits found so far, with Stop set.
// One-shot workspaces harden their assumptions into clauses before
// minimising; reusable ones keep them as assumptions so the session
// stays incrementally reusable.
func (ws *workspace) run(ctx context.Context, b sat.Budget) *Result {
	switch ws.solve(ctx, b) {
	case sat.Sat:
	case sat.Unknown:
		return &Result{Indeterminate: true, Stop: ws.stop()}
	default:
		return &Result{Feedback: &Feedback{Core: ws.core(ctx, b)}}
	}
	if !ws.reusable {
		ws.harden()
	}
	res := ws.minimize(ctx, b)
	return &Result{OK: true, Instance: ws.instance(), Edits: ws.edits(res.Model), Stop: res.Stats.Stop}
}

// ComputeEnvelopeCtx implements Alg. 3 for one recipient: the conjunction
// of every other party's goals, modulo those parties' concrete settings,
// expressed over the recipient's domain. With one sender this is the
// paper's E_{A→B}; with several it is the Sec. 7 joint envelope
// E_{A,B,…→C}, obtained by multiple passes of substitution (here: one
// substitution under the merged senders' settings). The computation is
// pure rewriting, with no solver calls and no budget to exhaust, so the
// context gates entry only: a done context returns its error (see
// target.FromContext) and a nil envelope.
func ComputeEnvelopeCtx(ctx context.Context, sys *encode.System, recipient *Party, senders []*Party) (*envelope.Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := make(map[*relational.Relation]*relational.TupleSet)
	var goalFs []relational.Formula
	var names []string
	for _, s := range senders {
		names = append(names, s.Name)
		goalFs = append(goalFs, s.GoalFormulas()...)
		for r, ts := range s.Fixed() {
			merged[r] = ts
		}
	}
	// Never substitute the recipient's own relations, even if a sender's
	// map mentions them (e.g. shared structure adjacent to exposure).
	for _, r := range recipient.Domain {
		delete(merged, r)
	}
	return envelope.Compute(
		strings.Join(names, ","), recipient.Name,
		goalFs, merged, recipient.Domain, sys.Universe,
		envelope.Options{Shared: sys.SharedTupleSets()},
	), nil
}

// CheckCandidate implements the first half of the Fig. 8 revision aid: does
// the party's current concrete configuration satisfy the received envelope
// — and, when withOwnGoals is set, its own goals on the composed system
// formed with the other parties' current configurations? It returns the
// failing formulas as blame.
func CheckCandidate(sys *encode.System, p *Party, env *envelope.Envelope, withOwnGoals bool, others ...*Party) (bool, []relational.Formula) {
	inst := instanceFor(sys, append([]*Party{p}, others...)...)
	failing := env.Failing(inst)
	if withOwnGoals {
		for _, g := range p.Goals {
			if !relational.Eval(g.Formula, inst) {
				failing = append(failing, g.Formula)
			}
		}
	}
	return len(failing) == 0, failing
}

// instanceFor builds the concrete instance of structure plus the given
// parties' current configurations (all other relations empty).
func instanceFor(sys *encode.System, parties ...*Party) *relational.Instance {
	b := sys.NewBounds()
	inst := relational.NewInstance(sys.Universe)
	for _, r := range b.Relations() {
		inst.Set(r, b.Lower(r))
	}
	for _, p := range parties {
		for r, ts := range p.Fixed() {
			inst.Set(r, ts)
		}
	}
	return inst
}

// GoalsCompatibleCtx implements the second envelope use of Sec. 3:
// comparing a received envelope with the recipient's goals (rather than
// its configuration). It asks whether ANY configuration of the recipient's
// domain satisfies both the envelope and the recipient's goals, given the
// senders' current settings (which are substituted into the recipient's
// goals, mirroring Alg. 3). If not, the recipient's goals themselves must
// change — the situation that forces the Fig. 4 revision — and the core
// blames the irreconcilable parts. On budget exhaustion or cancellation
// the result is Indeterminate.
func GoalsCompatibleCtx(ctx context.Context, sys *encode.System, recipient *Party, env *envelope.Envelope, b sat.Budget, senders ...*Party) *Result {
	merged := make(map[*relational.Relation]*relational.TupleSet)
	for _, s := range senders {
		for r, ts := range s.Fixed() {
			merged[r] = ts
		}
	}
	for _, r := range recipient.Domain {
		delete(merged, r)
	}
	ws := newWorkspace(sys, []partySpec{{party: recipient}}, false) // fully free
	ws.addNamed(recipient.Name+"/envelope", ws.ss.Lit(env.Formula()))
	for _, g := range recipient.Goals {
		f := relational.Substitute(g.Formula, merged)
		ws.addNamed(recipient.Name+"/"+g.Name, ws.ss.Lit(f))
	}
	switch ws.solve(ctx, b) {
	case sat.Sat:
		return &Result{OK: true, Instance: ws.instance()}
	case sat.Unknown:
		return &Result{Indeterminate: true, Stop: ws.stop()}
	default:
		return &Result{Feedback: &Feedback{Core: ws.core(ctx, b)}}
	}
}

// SynthesizeMonolithicCtx is the Fig. 6 baseline: traditional single-step
// synthesis over the union of all parties' goals, with every setting a
// hole and no notion of offers, softness, envelopes or negotiation. On the
// paper's running conflict it simply fails (the union of the property sets
// is unsatisfiable, Sec. 2) — the behaviour the multi-party workflows are
// designed to improve on. On budget exhaustion or cancellation the result
// is Indeterminate.
func SynthesizeMonolithicCtx(ctx context.Context, sys *encode.System, parties []*Party, b sat.Budget) *Result {
	specs := make([]partySpec, len(parties))
	for i, p := range parties {
		specs[i] = partySpec{party: p, includeGoals: true}
	}
	ws := newWorkspace(sys, specs, false)
	switch ws.solve(ctx, b) {
	case sat.Sat:
		return &Result{OK: true, Instance: ws.instance()}
	case sat.Unknown:
		return &Result{Indeterminate: true, Stop: ws.stop()}
	default:
		return &Result{Feedback: &Feedback{Core: ws.core(ctx, b)}}
	}
}
