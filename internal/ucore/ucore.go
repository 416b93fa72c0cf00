// Package ucore extracts unsatisfiable cores over named constraints.
//
// Clients attach each retractable constraint to a selector literal (for
// circuit-grounded formulas, boolcirc.CNF.LitFor provides exactly that) and
// ask for a core: a small named subset whose conjunction with the solver's
// hard clauses is unsatisfiable. The core is minimised by a canonical
// deletion pass over the full named list in caller order — each trial is a
// purely semantic question, so the reported blame is identical across
// encodings, preprocessing configurations, and solver heuristics.
//
// Muppet surfaces these cores as the "unsatisfiable core with blame
// information" feedback the paper prescribes for hole-style configurations
// (Sec. 4.3).
package ucore

import (
	"context"

	"muppet/internal/sat"
)

// Named pairs a human-meaningful label with the selector literal that
// enables its constraint.
type Named struct {
	// Name identifies the constraint in feedback (e.g. a goal row).
	Name string
	// Lit, when assumed true, enforces the constraint.
	Lit sat.Lit
}

// FindCtx returns an unsatisfiable core of the named constraints,
// minimised by deletion: every returned element is necessary (removing it
// restores satisfiability relative to the others). It returns nil when the
// constraints are jointly satisfiable with the solver's clauses. If the
// solver's hard clauses are unsatisfiable on their own, it returns an
// empty non-nil slice.
//
// The context and the budget bound the work: the budget's caps apply to
// each individual solver call; the deadline is a shared wall-clock cutoff.
// Degradation is conservative and never fabricates blame: if the initial
// solve cannot re-establish unsatisfiability within budget, FindCtx
// returns nil (check the solver's StopReason to distinguish "satisfiable"
// from "gave up"); if a deletion trial comes back Unknown, the element
// under test is kept, so the result is a valid — possibly non-minimal —
// core.
func FindCtx(ctx context.Context, b sat.Budget, s *sat.Solver, named []Named) []Named {
	all := make([]sat.Lit, 0, len(named))
	seenLit := make(map[sat.Lit]bool, len(named))
	byLit := make(map[sat.Lit][]Named, len(named))
	for _, n := range named {
		if !seenLit[n.Lit] {
			seenLit[n.Lit] = true
			all = append(all, n.Lit)
		}
		byLit[n.Lit] = append(byLit[n.Lit], n)
		// Selectors must keep their identity through CNF preprocessing.
		s.FreezeLit(n.Lit)
	}
	if s.SolveCtx(ctx, b, all...) != sat.Unsat {
		return nil
	}

	// Canonical deletion-based minimisation: one left-to-right pass over
	// the FULL named list in caller order, permanently dropping each
	// literal whose removal keeps the set unsatisfiable. The pass yields a
	// minimal core: when an element survives its test, the set at test
	// time is a superset of the final set, so it would survive against the
	// final set too. Each trial is a semantic satisfiability question, so
	// the result depends only on the constraints and the caller's order —
	// never on learnt clauses, restarts, or preprocessing — which is what
	// keeps blame output byte-identical across encoding configurations.
	// (Seeding from Solver.Core would be cheaper but heuristic.)
	kept := append([]sat.Lit(nil), all...)
	for i := 0; i < len(kept); i++ {
		trial := make([]sat.Lit, 0, len(kept)-1)
		trial = append(trial, kept[:i]...)
		trial = append(trial, kept[i+1:]...)
		if s.SolveCtx(ctx, b, trial...) == sat.Unsat {
			kept = trial
			i-- // continue the pass at the shifted position
		}
	}

	out := make([]Named, 0, len(kept))
	seen := make(map[string]bool)
	for _, l := range kept {
		for _, n := range byLit[l] {
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n)
			}
		}
	}
	return out
}
