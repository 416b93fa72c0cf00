package muppet

import (
	"muppet/internal/delta"
	"muppet/internal/encode"
)

// This file is the solving side of delta re-reconciliation (package
// delta computes the diff; this applies it). A Rebase runs an ordinary
// workflow call against the cache — so verdicts, models, and blame are
// byte-identical to any other path by construction — and brackets it with
// counter probes that report how incremental the call actually was:
// selector-guarded config groups kept vs. re-asserted, and eliminated
// variables the re-assertions restored (simp.Restore via the solver's
// transparent AddClause path).

// Snapshot captures the delta-comparable content of a party set over one
// system: the universe the system grounded, and every party's goals and
// concrete fixed settings, all rendered to strings (see package delta for
// why pointers would be wrong across two compiled Systems).
func Snapshot(sys *encode.System, parties []*Party) *delta.Revision {
	rev := &delta.Revision{Universe: sys.Universe.Atoms()}
	for _, p := range parties {
		pr := delta.PartyRev{Name: p.Name, Fixed: make(map[string][]string)}
		for _, g := range p.Goals {
			pr.Goals = append(pr.Goals, delta.Goal{Name: g.Name, Formula: g.Formula.String()})
		}
		for r, ts := range p.Fixed() {
			rendered := make([]string, 0, ts.Len())
			for _, t := range ts.Tuples() {
				rendered = append(rendered, t.String(ts.Universe()))
			}
			pr.Fixed[r.Name()] = rendered
		}
		rev.Parties = append(rev.Parties, pr)
	}
	return rev
}

// DeltaStats reports how much of the warm solving state one revision step
// reused, alongside the content diff that drove it.
type DeltaStats struct {
	// Cold marks a rebase that fell back to a cold build — an incompatible
	// plan, a nil cache, or no live session for the workspace shape.
	// Reason says which.
	Cold   bool
	Reason string

	// GroupsKept counts selector-guarded config groups reused verbatim
	// from the warm session; GroupsReasserted the groups ground fresh
	// because their content changed (or everything, on a cold build).
	GroupsKept       int64
	GroupsReasserted int64

	// Goal and atom counts from the delta plan.
	GoalsKept    int
	GoalsAdded   int
	GoalsRemoved int
	AtomsChanged int

	// Restored counts variables the CNF preprocessor un-eliminated
	// because a re-asserted group's clauses touched them.
	Restored int64
}

// deltaProbe snapshots the cumulative counters a rebase brackets.
type deltaProbe struct {
	kept, reasserted int64
	restored         int64
	sessions         int64
}

func (c *SolveCache) probe() deltaProbe {
	if c == nil {
		return deltaProbe{}
	}
	p := deltaProbe{sessions: c.sessions}
	for _, ws := range c.entries {
		p.kept += ws.groupsKept
		p.reasserted += ws.groupsNew
		p.restored += ws.ss.Solver().Stats.SimpRestored
	}
	return p
}

// Rebase runs fn — one workflow call served from this cache — with delta
// instrumentation, attributing plan's content diff and the cache's
// incremental counters to the returned stats. plan may be nil (counters
// only). An incompatible plan, a nil receiver, or a session built fresh
// during fn marks the stats Cold; fn runs either way, so the caller
// always gets its answer.
func (c *SolveCache) Rebase(plan *delta.Plan, fn func()) DeltaStats {
	var ds DeltaStats
	if plan != nil {
		ds.GoalsKept = plan.GoalsKept
		ds.GoalsAdded = len(plan.GoalsAdded)
		ds.GoalsRemoved = len(plan.GoalsRemoved)
		ds.AtomsChanged = len(plan.AtomsChanged)
		if !plan.Compatible {
			ds.Cold = true
			ds.Reason = plan.Reason
		}
	}
	if c == nil {
		if !ds.Cold {
			ds.Cold = true
			ds.Reason = "no warm cache"
		}
		fn()
		return ds
	}
	before := c.probe()
	fn()
	after := c.probe()
	ds.GroupsKept = after.kept - before.kept
	ds.GroupsReasserted = after.reasserted - before.reasserted
	ds.Restored = after.restored - before.restored
	if after.sessions > before.sessions && !ds.Cold {
		ds.Cold = true
		ds.Reason = "no live session for this workspace shape"
	}
	return ds
}
