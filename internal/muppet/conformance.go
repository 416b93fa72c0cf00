package muppet

import (
	"context"

	"muppet/internal/encode"
	"muppet/internal/envelope"
	"muppet/internal/sat"
	"muppet/internal/target"
)

// ConformanceOutcome records one run of the Fig. 7 solver-aided
// conformance workflow between an inflexible provider A and a tenant B.
type ConformanceOutcome struct {
	// ProviderConsistent is Alg. 1 on A's offer.
	ProviderConsistent bool
	// Envelope is E_{A→B}, computed once (Fig. 7: "the envelope E_{A→B}
	// need never be recomputed").
	Envelope *envelope.Envelope
	// CandidateOK reports whether B's original configuration already
	// satisfied the envelope (first branch of Fig. 8).
	CandidateOK bool
	// Edits are the minimal changes B's revision made (Fig. 8).
	Edits []Edit
	// Reconciled is the final Alg. 2 verdict on the delivered pair.
	Reconciled bool
	// Feedback explains the failing step, if any.
	Feedback *Feedback
	// FailedStep names the step that failed ("local-consistency",
	// "envelope", "revision", "reconcile"), empty on success.
	FailedStep string
	// Indeterminate is set when a solver budget or cancellation stopped
	// the step named by FailedStep before it reached a verdict; Stop says
	// why. No feedback is fabricated in that case.
	Indeterminate bool
	Stop          target.StopReason
}

// RunConformanceCtx drives the Fig. 7 workflow: check A's local
// consistency, compute E_{A→B}, let B revise via the Fig. 8 aid (checking
// its candidate and, if needed, computing a minimal edit satisfying the
// envelope and its own goals), then reconcile the offers. On success both
// parties adopt the delivered configurations. Each solving step runs on c
// (one-shot workspaces when c is nil) within the shared budget b; a budget
// that expires mid-step marks the outcome Indeterminate with the failing
// step named, instead of misreporting the step as a proven failure.
func (c *SolveCache) RunConformanceCtx(ctx context.Context, sys *encode.System, provider, tenant *Party, b sat.Budget) *ConformanceOutcome {
	out := &ConformanceOutcome{}

	indeterminate := func(step string, stop target.StopReason) *ConformanceOutcome {
		out.FailedStep = step
		out.Indeterminate = true
		out.Stop = stop
		return out
	}

	lc := c.LocalConsistencyCtx(ctx, sys, provider, []*Party{tenant}, b)
	out.ProviderConsistent = lc.OK
	if lc.Indeterminate {
		return indeterminate("local-consistency", lc.Stop)
	}
	if !lc.OK {
		out.Feedback = lc.Feedback
		out.FailedStep = "local-consistency"
		return out
	}

	env, err := ComputeEnvelopeCtx(ctx, sys, tenant, []*Party{provider})
	if err != nil {
		return indeterminate("envelope", target.FromContext(err))
	}
	out.Envelope = env

	// Fig. 8: conform as is, else revise with a minimal edit.
	revision := c.Revise(ctx, sys, tenant, out.Envelope, b, provider)
	out.CandidateOK = revision == nil
	if !out.CandidateOK {
		if revision.Indeterminate {
			return indeterminate("revision", revision.Stop)
		}
		if !revision.OK {
			out.Feedback = revision.Feedback
			out.FailedStep = "revision"
			return out
		}
		out.Edits = revision.Edits
	}

	rec := c.ReconcileCtx(ctx, sys, []*Party{provider, tenant}, b)
	if rec.Indeterminate {
		return indeterminate("reconcile", rec.Stop)
	}
	out.Reconciled = rec.OK
	if !rec.OK {
		out.Feedback = rec.Feedback
		out.FailedStep = "reconcile"
		return out
	}
	provider.adopt(rec.Instance)
	tenant.adopt(rec.Instance)
	return out
}
