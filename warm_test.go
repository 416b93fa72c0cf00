package muppet_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"muppet"
	"muppet/internal/server"
	tenantpool "muppet/internal/tenant"
)

// fig1System builds the Fig. 1 system plus loaded goal sets, shared by the
// warm-stability tests below.
func fig1System(t *testing.T) (*muppet.System, *muppet.Bundle, []muppet.K8sGoal, []muppet.IstioGoal) {
	t.Helper()
	bundle, err := muppet.LoadFiles(
		"testdata/fig1/mesh.yaml",
		"testdata/fig1/k8s_current.yaml",
		"testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	kg, err := muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	ig, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		t.Fatal(err)
	}
	var extra []int
	for _, g := range kg {
		extra = append(extra, g.Port)
	}
	for _, g := range ig {
		for _, tm := range []muppet.PortTerm{g.SrcPort, g.DstPort} {
			if tm.Kind == muppet.PortLit {
				extra = append(extra, tm.Port)
			}
		}
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies, extra)
	if err != nil {
		t.Fatal(err)
	}
	return sys, bundle, kg, ig
}

// TestWarmReconcileByteStable asserts the guarantee the mediation daemon
// depends on: a reconcile served from a warm SolveCache session (with
// learnt clauses and heuristic state accumulated over prior queries)
// renders byte-identically to a cold run — not just the same verdict and
// edit distance, but the same canonical model, edits, and configurations.
func TestWarmReconcileByteStable(t *testing.T) {
	sys, bundle, kg, ig := fig1System(t)
	run := func(cache *muppet.SolveCache) string {
		k8sParty, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.AllSoft(), kg)
		if err != nil {
			t.Fatal(err)
		}
		istioParty, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), ig)
		if err != nil {
			t.Fatal(err)
		}
		res := cache.ReconcileCtx(context.Background(), sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{})
		if !res.OK {
			t.Fatalf("reconcile failed: indeterminate=%v feedback=%v", res.Indeterminate, res.Feedback)
		}
		k8sParty.Adopt(res.Instance)
		istioParty.Adopt(res.Instance)
		out := ""
		for _, e := range res.Edits {
			out += "edit: " + e.String() + "\n"
		}
		return out + k8sParty.Describe() + istioParty.Describe()
	}
	cold := run(muppet.NewSolveCache())
	cache := muppet.NewSolveCache()
	for i := 0; i < 5; i++ {
		if warm := run(cache); warm != cold {
			t.Fatalf("warm iteration %d differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", i, cold, warm)
		}
	}
	if st := cache.Stats(); st.Reuses == 0 {
		t.Fatalf("expected warm session reuse, stats %+v", st)
	}
}

// TestWarmNegotiationByteStable extends the byte-stability guarantee to
// the multi-round negotiation workflow, whose rounds all share one cache.
func TestWarmNegotiationByteStable(t *testing.T) {
	sys, bundle, kg, ig := fig1System(t)
	run := func(cache *muppet.SolveCache) string {
		k8sParty, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.AllSoft(), kg)
		if err != nil {
			t.Fatal(err)
		}
		istioParty, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), ig)
		if err != nil {
			t.Fatal(err)
		}
		n := muppet.NewNegotiation(sys, k8sParty, istioParty).UseCache(cache)
		out := n.RunCtx(context.Background(), muppet.Budget{})
		return fmt.Sprintf("reconciled=%v reason=%v rounds=%d\n%s%s",
			out.Reconciled, out.Reason, len(out.Rounds), k8sParty.Describe(), istioParty.Describe())
	}
	cold := run(muppet.NewSolveCache())
	cache := muppet.NewSolveCache()
	for i := 0; i < 5; i++ {
		if warm := run(cache); warm != cold {
			t.Fatalf("warm iteration %d differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", i, cold, warm)
		}
	}
}

// allocsDuring reports heap allocations (object count) made by fn,
// measured with the world otherwise quiet. GC is forced first so a
// collection triggered mid-run can't misattribute background work.
func allocsDuring(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWarmReconcileAllocGate is the regression gate for the warm-path
// collapse fixed alongside the arena front-end: a SolveCache serving a
// repeat reconcile from a live session must do a small fraction of the
// cold build's allocation work. Before the fix, the "warm" benchmarks at
// the larger sweep sizes ran with b.N=1 and silently timed the cold
// build; the gate pins warm allocations to under 25% of cold so any
// regression of the session-reuse path fails loudly instead of showing
// up only as benchmark drift.
func TestWarmReconcileAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("cold build at services=24 is slow; skipped under -short")
	}
	sc := muppet.GenerateScenario(muppet.ScenarioParams{
		Services:        24,
		PortsPerService: 2,
		Flows:           24,
		BannedPorts:     2,
		Seed:            42,
	})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), sc.K8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	istioParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), sc.IstioRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	parties := []*muppet.Party{k8sParty, istioParty}
	ctx := context.Background()

	cache := muppet.NewSolveCache()
	cold := allocsDuring(func() {
		if res := cache.ReconcileCtx(ctx, sys, parties, muppet.Budget{}); !res.OK {
			t.Fatal("must reconcile")
		}
	})
	warm := allocsDuring(func() {
		if res := cache.ReconcileCtx(ctx, sys, parties, muppet.Budget{}); !res.OK {
			t.Fatal("must reconcile")
		}
	})
	if cache.Stats().Reuses == 0 {
		t.Fatal("second reconcile did not reuse the live session")
	}
	t.Logf("cold=%d warm=%d allocs (warm/cold = %.1f%%)", cold, warm, 100*float64(warm)/float64(cold))
	if warm*4 >= cold {
		t.Fatalf("warm reconcile allocated %d objects, >= 25%% of the cold build's %d: session reuse has regressed", warm, cold)
	}
}

// corpusState loads the serving state of one testdata/corpus case.
func corpusState(t *testing.T, name string) *server.State {
	t.Helper()
	st, _, err := server.ManifestLoader(filepath.Join("testdata/corpus", name, tenantpool.ManifestName))()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// serveOps is the op mix muppetbench's serve workload sends.
var serveOps = []server.Request{
	{Op: "check", Party: "k8s"},
	{Op: "check", Party: "istio"},
	{Op: "envelope", From: "k8s", To: "istio"},
	{Op: "reconcile"},
	{Op: "conform", Provider: "k8s"},
	{Op: "negotiate"},
}

// liveHeap reports the bytes still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestWarmServingHeapStaysFlat serves the six ops of the serve mix from
// one warm SolveCache, round after round, the way a daemon worker does.
// Every request builds fresh parties, so its goal formulas are fresh
// nodes that the session answers from its structural cache. The session
// must not keep them: its live heap may grow with new formula shapes and
// learnt clauses, but not with the number of requests served.
func TestWarmServingHeapStaysFlat(t *testing.T) {
	st := corpusState(t, "s6-seed1-relaxed")
	cache := muppet.NewSolveCache()
	ctx := context.Background()
	var base int64
	for round := 1; round <= 100; round++ {
		for _, req := range serveOps {
			if _, err := server.Exec(ctx, st, cache, req, muppet.Budget{}); err != nil {
				t.Fatalf("round %d, %s: %v", round, req.Op, err)
			}
		}
		if round == 10 {
			base = liveHeap()
		}
	}
	grown := liveHeap() - base
	runtime.KeepAlive(cache)
	t.Logf("live heap grew %d KiB from round 10 to round 100", grown>>10)
	if grown >= 2<<20 {
		t.Fatalf("live heap grew %d KiB over 90 warm rounds, want < 2048 KiB: the warm session retains per-request state", grown>>10)
	}
}

// perRun reports the mean heap objects and bytes one call of f allocates,
// measured at GOMAXPROCS=1 after a warm-up call.
func perRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmServedReconcileAllocs pins what one warm reconcile allocates on
// the services=12 corpus case, served through server.Exec as the daemon
// serves it: objects and bytes per request within 25% either side of the
// values recorded when the test was written. A warm request classifies
// its parties' offers against the System's knob table, reuses the
// session's bounds and takes its goals from the State's one compile, so
// most of what it allocates is its own configuration copies, solve and
// render.
func TestWarmServedReconcileAllocs(t *testing.T) {
	const wantObjects, wantBytes = 657, 102200
	st := corpusState(t, "s12-seed7-relaxed")
	cache := muppet.NewSolveCache()
	ctx := context.Background()
	reconcile := func() {
		if resp, err := server.Exec(ctx, st, cache, server.Request{Op: "reconcile"}, muppet.Budget{}); err != nil || resp.Code != server.CodeSat {
			t.Fatalf("reconcile: code %d, err %v", resp.Code, err)
		}
	}
	reconcile() // the cold build
	objects, bytes := perRun(10, reconcile)
	if st := cache.Stats(); st.Sessions != 1 {
		t.Fatalf("warm reconciles built %d sessions, want 1", st.Sessions)
	}
	t.Logf("warm reconcile: %.0f objects, %.0f KiB per request", objects, bytes/1024)
	for _, m := range []struct {
		name      string
		got, want float64
	}{{"objects", objects, wantObjects}, {"bytes", bytes, wantBytes}} {
		if m.got < 0.75*m.want || m.got > 1.25*m.want {
			t.Errorf("%s per warm reconcile = %.0f, want %.0f ± 25%%", m.name, m.got, m.want)
		}
	}
}
