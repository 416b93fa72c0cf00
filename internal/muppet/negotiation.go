package muppet

import (
	"context"

	"muppet/internal/encode"
	"muppet/internal/envelope"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/target"
)

// Negotiation drives the Fig. 9 solver-aided negotiation workflow: all
// parties register offers and goals up front; after an initial
// reconciliation attempt, parties take round-robin turns receiving an
// envelope from the rest and revising their offer into a minimally-edited
// counter-offer. The paper motivates round-robin over simultaneous
// envelope broadcast "to avoid forcing administrators to accommodate a
// potentially moving target" (Sec. 4.2); Sec. 7's N-party extension simply
// lengthens the cycle, which this implementation supports directly.
type Negotiation struct {
	sys     *encode.System
	parties []*Party
	// cache keeps live solving sessions across rounds: the repeated
	// reconciliations and each party's revision workspace become
	// incremental solves instead of per-round rebuilds.
	cache *SolveCache
	// MaxRounds bounds the number of revision turns (default 2 cycles).
	MaxRounds int
	// Turn runs each party's revision phase. Nil means in process, on the
	// negotiation's cache; a federated coordinator supplies a turn that
	// asks the party's own mediator instead.
	Turn Turn
}

// Turn is party i's revision phase in one round (Fig. 8): given the
// envelope the other parties sent it, the party answers as
// SolveCache.Revise does — nil when its configuration already conforms,
// else the minimal-edit result, adopted into the party when OK. An error
// means the party could not be reached; it ends the run as
// ReasonUnreachable.
type Turn func(ctx context.Context, round, i int, env *envelope.Envelope, b sat.Budget) (*Result, error)

// TerminalReason classifies how a negotiation run ended. A MaxRounds
// exhaustion, a full stuck cycle, and a solver-budget interruption are
// distinct situations demanding different operator responses (wait
// longer vs. talk to each other vs. raise the budget), so the outcome
// names them explicitly.
type TerminalReason int

const (
	// ReasonReconciled: the run succeeded.
	ReasonReconciled TerminalReason = iota
	// ReasonExhaustedRounds: MaxRounds turns elapsed with progress still
	// possible — more rounds might succeed.
	ReasonExhaustedRounds
	// ReasonAllStuck: every party in a full cycle was stuck — no revision
	// can help; administrators must talk (Sec. 4.2).
	ReasonAllStuck
	// ReasonIndeterminate: a solver budget or cancellation interrupted a
	// round; the run is neither a success nor a proven failure.
	ReasonIndeterminate
	// ReasonUnreachable: a party's turn, or the delivery of the agreement
	// to it, failed (a federated peer stayed unreachable through retries).
	// The rounds so far and the parties' configurations are the
	// best-so-far partial agreement.
	ReasonUnreachable
)

func (r TerminalReason) String() string {
	switch r {
	case ReasonReconciled:
		return "reconciled"
	case ReasonExhaustedRounds:
		return "exhausted-rounds"
	case ReasonAllStuck:
		return "all-stuck"
	case ReasonUnreachable:
		return "peer-unreachable"
	default:
		return "indeterminate"
	}
}

// RoundReport records one revision turn.
type RoundReport struct {
	Round    int
	Party    string
	Envelope *envelope.Envelope
	// ConformedAlready is set when the party's current offer satisfied the
	// envelope and its own goals without edits.
	ConformedAlready bool
	// Revised is set when the party produced a counter-offer.
	Revised bool
	Edits   []Edit
	// Stuck is set when no revision of this party's offer can satisfy the
	// envelope together with its own goals — direct communication between
	// administrators is needed (Sec. 4.2).
	Stuck bool
	// Indeterminate is set when a solver budget, a cancellation or an
	// unreachable party cut this round short: the party is not known to be
	// stuck, the round simply never finished.
	Indeterminate bool
	Feedback      *Feedback
	// Reconciled reports the Alg. 2 attempt after the revision.
	Reconciled bool
}

// NegotiationOutcome summarises a RunCtx.
type NegotiationOutcome struct {
	Reconciled bool
	// InitialReconcile is true when the registered offers reconciled
	// immediately (top of Fig. 9).
	InitialReconcile bool
	// Reason states how the run terminated.
	Reason TerminalReason
	// Stop carries the solver stop cause when Reason is
	// ReasonIndeterminate.
	Stop   target.StopReason
	Rounds []*RoundReport
	// Feedback explains the terminal failure, if any. It is never set for
	// an indeterminate or unreachable run: an interrupted solve proves
	// nothing to blame.
	Feedback *Feedback
	// FailedParty and Err name the party whose failure ended the run, and
	// why, when Reason is ReasonUnreachable.
	FailedParty string
	Err         error
}

// Unreachable ends o as ReasonUnreachable, naming the party whose turn
// or delivery failed and why. An agreement a party never received is not
// reconciled, so Reconciled is cleared.
func (o *NegotiationOutcome) Unreachable(party string, err error) *NegotiationOutcome {
	o.Reconciled = false
	o.Reason = ReasonUnreachable
	o.FailedParty, o.Err = party, err
	o.Feedback = nil
	return o
}

// NewNegotiation registers parties for negotiation. Order fixes the
// round-robin cycle.
func NewNegotiation(sys *encode.System, parties ...*Party) *Negotiation {
	return &Negotiation{sys: sys, parties: parties, cache: NewSolveCache(), MaxRounds: 2 * len(parties)}
}

// UseCache serves this negotiation's solves from c instead of the
// negotiation's own private cache. A long-lived mediator process passes
// one shared cache to successive negotiations over the same system, so
// even the first reconciliation of a new run lands on a warm session.
// Returns n for chaining.
func (n *Negotiation) UseCache(c *SolveCache) *Negotiation {
	n.cache = c
	return n
}

// others returns all parties except index i.
func (n *Negotiation) others(i int) []*Party {
	out := make([]*Party, 0, len(n.parties)-1)
	for j, p := range n.parties {
		if j != i {
			out = append(out, p)
		}
	}
	return out
}

// revise is the in-process Turn.
func (n *Negotiation) revise(ctx context.Context, _, i int, env *envelope.Envelope, b sat.Budget) (*Result, error) {
	return n.cache.Revise(ctx, n.sys, n.parties[i], env, b, n.others(i)...), nil
}

// RunCtx executes the workflow until reconciliation succeeds, every party
// in a full cycle is stuck, or MaxRounds turns elapse. Successful runs
// adopt the reconciled configurations into every party. The budget is
// shared by every solve of the workflow: one that expires mid-run
// terminates the negotiation with ReasonIndeterminate — an interrupted
// round is reported as such, never misreported as a stuck party or a
// failed reconciliation.
func (n *Negotiation) RunCtx(ctx context.Context, b sat.Budget) *NegotiationOutcome {
	out := &NegotiationOutcome{}
	turn := n.Turn
	if turn == nil {
		turn = n.revise
	}

	indeterminate := func(rep *RoundReport, stop target.StopReason) *NegotiationOutcome {
		if rep != nil {
			rep.Indeterminate = true
		}
		out.Reason = ReasonIndeterminate
		out.Stop = stop
		out.Feedback = nil
		return out
	}

	// Reconcile initial offers (top of Fig. 9).
	rec := n.cache.ReconcileCtx(ctx, n.sys, n.parties, b)
	if rec.Indeterminate {
		return indeterminate(nil, rec.Stop)
	}
	if rec.OK {
		n.adoptAll(rec.Instance)
		out.Reconciled = true
		out.InitialReconcile = true
		out.Reason = ReasonReconciled
		return out
	}
	out.Feedback = rec.Feedback

	stuckStreak := 0
	for round := 1; round <= n.MaxRounds; round++ {
		i := (round - 1) % len(n.parties)
		p := n.parties[i]
		rep := &RoundReport{Round: round, Party: p.Name}
		out.Rounds = append(out.Rounds, rep)

		env, err := ComputeEnvelopeCtx(ctx, n.sys, p, n.others(i))
		if err != nil {
			return indeterminate(rep, target.FromContext(err))
		}
		rep.Envelope = env

		revision, err := turn(ctx, round, i, env, b)
		switch {
		case err != nil:
			rep.Indeterminate = true
			return out.Unreachable(p.Name, err)
		case revision == nil:
			rep.ConformedAlready = true
		case revision.Indeterminate:
			return indeterminate(rep, revision.Stop)
		case !revision.OK:
			rep.Stuck = true
			rep.Feedback = revision.Feedback
			out.Feedback = revision.Feedback
			stuckStreak++
			if stuckStreak >= len(n.parties) {
				// A full cycle of stuck parties: humans must talk.
				out.Reason = ReasonAllStuck
				return out
			}
			continue
		default:
			rep.Revised = true
			rep.Edits = revision.Edits
		}
		stuckStreak = 0

		rec := n.cache.ReconcileCtx(ctx, n.sys, n.parties, b)
		if rec.Indeterminate {
			return indeterminate(rep, rec.Stop)
		}
		rep.Reconciled = rec.OK
		if rec.OK {
			n.adoptAll(rec.Instance)
			out.Reconciled = true
			out.Reason = ReasonReconciled
			out.Feedback = nil
			return out
		}
		rep.Feedback = rec.Feedback
		out.Feedback = rec.Feedback
	}
	out.Reason = ReasonExhaustedRounds
	return out
}

func (n *Negotiation) adoptAll(inst *relational.Instance) {
	for _, p := range n.parties {
		p.adopt(inst)
	}
}
