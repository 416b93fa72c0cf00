package muppet

import (
	"context"
	"sort"
	"testing"

	"muppet/internal/encode"
	"muppet/internal/sat"
)

// mkPartyPair builds a fresh (K8s, Istio) pair over f's system. strict
// selects the irreconcilable Fig. 3 goals instead of the revised Fig. 4
// set.
func mkPartyPair(t testing.TB, f *fixture, strict bool) (*Party, *Party) {
	t.Helper()
	ig := f.istioRevised
	if strict {
		ig = f.istioFig3
	}
	k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), ig)
	if err != nil {
		t.Fatal(err)
	}
	return k8sParty, istioParty
}

func sortedCore(r *Result) []string {
	if r.Feedback == nil {
		return nil
	}
	out := append([]string(nil), r.Feedback.Core...)
	sort.Strings(out)
	return out
}

func sameStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolveCacheMatchesFresh runs each workflow query twice through one
// SolveCache (cold build, then warm reuse) and compares every observable —
// verdict, edit count, blame core — against the one-shot package-level
// path. Session reuse is a performance feature only.
func TestSolveCacheMatchesFresh(t *testing.T) {
	f := loadFixture(t)
	ctx := context.Background()
	cache := NewSolveCache()

	for round := 0; round < 2; round++ {
		// Reconcilable pair.
		k8sParty, istioParty := mkPartyPair(t, f, false)
		fresh := oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
		k8sParty2, istioParty2 := mkPartyPair(t, f, false)
		warm := cache.ReconcileCtx(ctx, f.sys, []*Party{k8sParty2, istioParty2}, sat.Budget{})
		if warm.OK != fresh.OK || !warm.OK {
			t.Fatalf("round %d: cached %v, fresh %v", round, warm.OK, fresh.OK)
		}
		if len(warm.Edits) != len(fresh.Edits) {
			t.Fatalf("round %d: cached edit distance %d, fresh %d", round, len(warm.Edits), len(fresh.Edits))
		}

		// Irreconcilable pair: blame must agree.
		k8sParty, istioParty = mkPartyPair(t, f, true)
		fresh = oneShot.ReconcileCtx(context.Background(), f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
		k8sParty2, istioParty2 = mkPartyPair(t, f, true)
		warm = cache.ReconcileCtx(ctx, f.sys, []*Party{k8sParty2, istioParty2}, sat.Budget{})
		if warm.OK || fresh.OK {
			t.Fatalf("round %d: strict goals must fail (cached %v, fresh %v)", round, warm.OK, fresh.OK)
		}
		if a, b := sortedCore(warm), sortedCore(fresh); !sameStringSlices(a, b) {
			t.Fatalf("round %d: cached core %v, fresh core %v", round, a, b)
		}

		// Local consistency.
		k8sParty, istioParty = mkPartyPair(t, f, false)
		fresh = oneShot.LocalConsistencyCtx(context.Background(), f.sys, k8sParty, []*Party{istioParty}, sat.Budget{})
		warm = cache.LocalConsistencyCtx(ctx, f.sys, k8sParty, []*Party{istioParty}, sat.Budget{})
		if warm.OK != fresh.OK || !warm.OK {
			t.Fatalf("round %d: consistency cached %v, fresh %v", round, warm.OK, fresh.OK)
		}
	}

	st := cache.Stats()
	if st.Sessions == 0 || st.Reuses == 0 {
		t.Fatalf("expected both builds and reuses, got %+v", st)
	}
	if st.Translation.StructHits == 0 {
		t.Fatalf("expected translation-cache hits on reuse, got %+v", st)
	}
}

// TestSolveCacheShapeReuse checks fresh-but-identical parties land on the
// same live session (the shape-based key), not a new build per party
// object.
func TestSolveCacheShapeReuse(t *testing.T) {
	f := loadFixture(t)
	ctx := context.Background()
	cache := NewSolveCache()
	for i := 0; i < 3; i++ {
		k8sParty, istioParty := mkPartyPair(t, f, false)
		res := cache.ReconcileCtx(ctx, f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
		if !res.OK {
			t.Fatalf("iteration %d: %v", i, res.Feedback)
		}
	}
	st := cache.Stats()
	if st.Sessions != 1 {
		t.Fatalf("3 identical-shape reconciles built %d sessions, want 1", st.Sessions)
	}
	if st.Reuses != 2 {
		t.Fatalf("reuses = %d, want 2", st.Reuses)
	}
}

// TestSolveCacheConformanceAndNegotiation runs the two composite workflows
// through shared caches and checks the outcomes match their uncached runs,
// end to end (including adopted configurations verified by the runtime
// evaluator in the negotiation case).
func TestSolveCacheConformanceAndNegotiation(t *testing.T) {
	f := loadFixture(t)
	ctx := context.Background()

	provider, tenant := mkPartyPair(t, f, false)
	freshOut := oneShot.RunConformanceCtx(context.Background(), f.sys, provider, tenant, sat.Budget{})
	cache := NewSolveCache()
	provider2, tenant2 := mkPartyPair(t, f, false)
	cachedOut := cache.RunConformanceCtx(ctx, f.sys, provider2, tenant2, sat.Budget{})
	if cachedOut.Reconciled != freshOut.Reconciled || !cachedOut.Reconciled {
		t.Fatalf("conformance cached %v, fresh %v", cachedOut.Reconciled, freshOut.Reconciled)
	}

	// Negotiation across a shared mediator cache: two successive runs, the
	// second landing on warm sessions.
	shared := NewSolveCache()
	for i := 0; i < 2; i++ {
		k8sParty, istioParty := mkPartyPair(t, f, false)
		out := NewNegotiation(f.sys, k8sParty, istioParty).UseCache(shared).RunCtx(context.Background(), sat.Budget{})
		if !out.Reconciled {
			t.Fatalf("negotiation %d failed: %v", i, out.Feedback)
		}
	}
	if st := shared.Stats(); st.Reuses == 0 {
		t.Fatalf("second negotiation never reused a session: %+v", st)
	}
}

// TestSolveCacheBoundedEviction pins the bounded-cache surface a serving
// process budgets by: Len and ApproxBytes track live sessions, Evict
// drops least-recently-used sessions first, a rebuilt shape answers
// identically, and the nil cache is the valid always-cold degenerate.
func TestSolveCacheBoundedEviction(t *testing.T) {
	f := loadFixture(t)
	ctx := context.Background()
	cache := NewSolveCache()
	if cache.Len() != 0 || cache.ApproxBytes() != 0 || cache.Evict(1) != 0 {
		t.Fatal("fresh cache must be empty")
	}

	// Build two distinct session shapes: consistency, then reconcile.
	k8sParty, istioParty := mkPartyPair(t, f, false)
	if res := cache.LocalConsistencyCtx(ctx, f.sys, k8sParty, []*Party{istioParty}, sat.Budget{}); !res.OK {
		t.Fatal("must be consistent")
	}
	baseline := cache.ReconcileCtx(ctx, f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if !baseline.OK {
		t.Fatal("must reconcile")
	}
	if cache.Len() != 2 {
		t.Fatalf("len %d, want 2 shapes", cache.Len())
	}
	if cache.ApproxBytes() <= 0 {
		t.Fatal("live sessions must report nonzero bytes")
	}

	// Evict one: the LRU consistency session goes, the reconcile session
	// stays warm and keeps answering.
	if n := cache.Evict(1); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if cache.Len() != 1 {
		t.Fatalf("len %d after evict, want 1", cache.Len())
	}
	if ev := cache.Stats().Evictions; ev != 1 {
		t.Fatalf("stats evictions %d, want 1", ev)
	}
	again := cache.ReconcileCtx(ctx, f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
	if !again.OK || len(again.Edits) != len(baseline.Edits) {
		t.Fatalf("surviving session changed its answer: %v vs %v", again.Edits, baseline.Edits)
	}

	// The evicted shape rebuilds on next use — same verdict, one more
	// session built.
	before := cache.Stats().Sessions
	k8s2, istio2 := mkPartyPair(t, f, false)
	if res := cache.LocalConsistencyCtx(ctx, f.sys, k8s2, []*Party{istio2}, sat.Budget{}); !res.OK {
		t.Fatal("rebuilt shape must still be consistent")
	}
	if cache.Len() != 2 || cache.Stats().Sessions != before+1 {
		t.Fatalf("len %d sessions %d, want rebuild after eviction", cache.Len(), cache.Stats().Sessions)
	}

	// Over-asking drains the cache and stops.
	if n := cache.Evict(10); n != 2 {
		t.Fatalf("evicted %d, want 2", n)
	}
	if cache.Len() != 0 || cache.ApproxBytes() != 0 {
		t.Fatalf("len %d bytes %d after full eviction", cache.Len(), cache.ApproxBytes())
	}

	// The nil cache is always cold and never panics.
	var none *SolveCache
	if none.Len() != 0 || none.ApproxBytes() != 0 || none.Evict(3) != 0 {
		t.Fatal("nil cache must be empty and inert")
	}
}

// TestSolveCacheStatsSurviveEviction: Evict drops a session but not what
// it counted. The translation counters and the cumulative encoding
// counters read the same after each eviction as before it, while the
// gauges describe the live sessions only.
func TestSolveCacheStatsSurviveEviction(t *testing.T) {
	f := loadFixture(t)
	ctx := context.Background()
	cache := NewSolveCache()
	for i := 0; i < 2; i++ {
		k8sParty, istioParty := mkPartyPair(t, f, false)
		if res := cache.LocalConsistencyCtx(ctx, f.sys, k8sParty, []*Party{istioParty}, sat.Budget{}); !res.OK {
			t.Fatal("must be consistent")
		}
		if res := cache.ReconcileCtx(ctx, f.sys, []*Party{k8sParty, istioParty}, sat.Budget{}); !res.OK {
			t.Fatal("must reconcile")
		}
	}
	before := cache.Stats()
	if before.Translation.Misses == 0 || before.Translation.StructHits == 0 {
		t.Fatalf("test setup: want misses and structural hits, got %+v", before.Translation)
	}
	counters := func(st ReuseStats) [4]int64 {
		return [4]int64{
			st.Translation.StructHits, st.Translation.Misses,
			st.Encoding.ClausesRemoved, st.Encoding.Restored,
		}
	}
	for cache.Len() > 0 {
		if n := cache.Evict(1); n != 1 {
			t.Fatalf("evicted %d, want 1", n)
		}
		after := cache.Stats()
		if counters(after) != counters(before) {
			t.Fatalf("eviction %d changed the cumulative counters: %v -> %v",
				after.Evictions, counters(before), counters(after))
		}
		before = after
	}
	enc := cache.Stats().Encoding
	if enc.CircuitNodes != 0 || enc.SolverVars != 0 || enc.SolverClauses != 0 ||
		enc.LearntClauses != 0 || enc.VarsEliminated != 0 || enc.ArenaBytes != 0 {
		t.Fatalf("gauges of an empty cache must be zero: %+v", enc)
	}
}
