// Benchmark harness regenerating every figure of the paper's evaluation
// plus the Sec. 5 timing claim. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison. Run with:
//
//	go test -bench=. -benchmem .
package muppet_test

import (
	"context"
	"fmt"
	"testing"

	"muppet"
	"muppet/internal/boolcirc"
	"muppet/internal/encode"
	"muppet/internal/envelope"
	"muppet/internal/relational"
	"muppet/internal/sat"
)

// walkthrough loads the Sec. 3 / Fig. 1 scenario.
type walkthrough struct {
	sys      *muppet.System
	bundle   *muppet.Bundle
	k8sGoals []muppet.K8sGoal
	strict   []muppet.IstioGoal
	relaxed  []muppet.IstioGoal
}

func loadWalkthrough(b testing.TB) *walkthrough {
	b.Helper()
	bundle, err := muppet.LoadFiles(
		"testdata/fig1/mesh.yaml",
		"testdata/fig1/k8s_current.yaml",
		"testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		b.Fatal(err)
	}
	w := &walkthrough{sys: sys, bundle: bundle}
	if w.k8sGoals, err = muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv"); err != nil {
		b.Fatal(err)
	}
	if w.strict, err = muppet.LoadIstioGoals("testdata/fig1/istio_goals.csv"); err != nil {
		b.Fatal(err)
	}
	if w.relaxed, err = muppet.LoadIstioGoals("testdata/fig1/istio_goals_revised.csv"); err != nil {
		b.Fatal(err)
	}
	return w
}

func (w *walkthrough) parties(b testing.TB, istioGoals []muppet.IstioGoal, k8sOffer, istioOffer muppet.Offer) (*muppet.Party, *muppet.Party) {
	b.Helper()
	k8sParty, _, err := muppet.NewK8sParty(w.sys, w.bundle.K8s, k8sOffer, w.k8sGoals)
	if err != nil {
		b.Fatal(err)
	}
	istioParty, _, err := muppet.NewIstioParty(w.sys, w.bundle.Istio, istioOffer, istioGoals)
	if err != nil {
		b.Fatal(err)
	}
	return k8sParty, istioParty
}

// BenchmarkFig5Envelope regenerates the paper's Figure 5: computing
// E_{K8s→Istio} for the port-23 ban against the current K8s configuration.
func BenchmarkFig5Envelope(b *testing.B) {
	w := loadWalkthrough(b)
	k8sParty, istioParty := w.parties(b, nil, muppet.Offer{}, muppet.AllSoft())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := muppet.ComputeEnvelope(w.sys, istioParty, []*muppet.Party{k8sParty})
		if env.Trivial() {
			b.Fatal("Fig. 5 envelope must be non-trivial")
		}
	}
}

// BenchmarkFig6Monolithic regenerates the Figure 6 baseline: one-shot
// synthesis over the union of conflicting goals, which fails (Sec. 2).
func BenchmarkFig6Monolithic(b *testing.B) {
	w := loadWalkthrough(b)
	k8sParty, istioParty := w.parties(b, w.strict, muppet.AllHoles(), muppet.AllHoles())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := muppet.SynthesizeMonolithic(w.sys, []*muppet.Party{k8sParty, istioParty})
		if res.OK {
			b.Fatal("monolithic baseline must fail on the conflict")
		}
	}
}

// BenchmarkAlg1LocalConsistency regenerates Algorithm 1 on the provider's
// offer.
func BenchmarkAlg1LocalConsistency(b *testing.B) {
	w := loadWalkthrough(b)
	k8sParty, istioParty := w.parties(b, nil, muppet.Offer{}, muppet.AllHoles())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := muppet.LocalConsistency(w.sys, k8sParty, []*muppet.Party{istioParty})
		if !res.OK {
			b.Fatal("provider must be consistent")
		}
	}
}

// BenchmarkAlg2Reconcile regenerates Algorithm 2 on the reconcilable
// (Fig. 4) goal pair.
func BenchmarkAlg2Reconcile(b *testing.B) {
	w := loadWalkthrough(b)
	k8sParty, istioParty := w.parties(b, w.relaxed, muppet.AllSoft(), muppet.AllSoft())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := muppet.Reconcile(w.sys, []*muppet.Party{k8sParty, istioParty})
		if !res.OK {
			b.Fatal("Fig. 4 goals must reconcile")
		}
	}
}

// BenchmarkFig7Conformance regenerates the Figure 7 workflow end to end.
func BenchmarkFig7Conformance(b *testing.B) {
	w := loadWalkthrough(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The workflow adopts configurations on success, so each
		// iteration needs fresh parties; their construction (goal
		// compilation + offer binding) is excluded from the timing.
		b.StopTimer()
		provider, tenant := w.parties(b, w.relaxed, muppet.Offer{}, muppet.AllSoft())
		b.StartTimer()
		out := muppet.RunConformance(w.sys, provider, tenant)
		if !out.Reconciled {
			b.Fatal("conformance must succeed")
		}
	}
}

// BenchmarkFig8MinimalEdit regenerates the Figure 8 revision aid: minimal
// edit of the tenant's offer against the received envelope plus its goals.
func BenchmarkFig8MinimalEdit(b *testing.B) {
	w := loadWalkthrough(b)
	k8sParty, istioParty := w.parties(b, w.relaxed, muppet.Offer{}, muppet.AllSoft())
	env := muppet.ComputeEnvelope(w.sys, istioParty, []*muppet.Party{k8sParty})
	constraints := append([]relational.Formula{env.Formula()}, istioParty.GoalFormulas()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := muppet.MinimalEdit(w.sys, istioParty, constraints, k8sParty)
		if !res.OK {
			b.Fatal("minimal edit must exist")
		}
	}
}

// fig9Parties builds the Figure 9 cast: the pushed ban, a flexible tenant.
func fig9Parties(b testing.TB, w *walkthrough) (*muppet.Party, *muppet.Party) {
	b.Helper()
	banned := &muppet.K8sConfig{Policies: []*muppet.NetworkPolicy{{
		Name:             "cluster-default",
		IngressDenyPorts: []int{23},
	}}}
	k8sParty, _, err := muppet.NewK8sParty(w.sys, banned, muppet.Offer{}, w.k8sGoals)
	if err != nil {
		b.Fatal(err)
	}
	istioParty, _, err := muppet.NewIstioParty(w.sys, w.bundle.Istio, muppet.AllSoft(), w.relaxed)
	if err != nil {
		b.Fatal(err)
	}
	return k8sParty, istioParty
}

// BenchmarkFig9Negotiation regenerates the Figure 9 workflow: the pushed
// ban, a flexible tenant, round-robin to reconciliation. The negotiations
// are served by one long-lived SolveCache — the mediator deployment of
// Sec. 5, where successive runs (and the rounds within each run) reuse
// live solving sessions.
func BenchmarkFig9Negotiation(b *testing.B) {
	w := loadWalkthrough(b)
	cache := muppet.NewSolveCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Negotiation adopts configurations as it converges, so each
		// iteration needs fresh parties; their construction is excluded
		// from the timing so the solver workflow is measured in isolation.
		b.StopTimer()
		k8sParty, istioParty := fig9Parties(b, w)
		b.StartTimer()
		out := muppet.NewNegotiation(w.sys, k8sParty, istioParty).UseCache(cache).Run()
		if !out.Reconciled {
			b.Fatal("negotiation must succeed")
		}
	}
	reportReuse(b, cache.Stats())
}

// BenchmarkFig9NegotiationCold is the same workflow with every negotiation
// building its sessions from scratch (each run's private cache still
// shares sessions between its own rounds).
func BenchmarkFig9NegotiationCold(b *testing.B) {
	w := loadWalkthrough(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k8sParty, istioParty := fig9Parties(b, w)
		b.StartTimer()
		out := muppet.NewNegotiation(w.sys, k8sParty, istioParty).Run()
		if !out.Reconciled {
			b.Fatal("negotiation must succeed")
		}
	}
}

// BenchmarkScalingSweep reproduces the Sec. 5 claim ("all queries made in
// modest scenarios … finish in under 1 second") across scenario sizes: for
// each size, the three query kinds the workflows issue — local
// consistency, envelope computation, and reconciliation — are timed
// separately. ns/op per sub-benchmark is the per-query latency.
func BenchmarkScalingSweep(b *testing.B) {
	sizes := []struct {
		services, flows, bans int
	}{
		{3, 4, 1},
		{6, 6, 1},
		{12, 12, 2},
		{24, 24, 2},
	}
	for _, size := range sizes {
		sc := muppet.GenerateScenario(muppet.ScenarioParams{
			Services:        size.services,
			PortsPerService: 2,
			Flows:           size.flows,
			BannedPorts:     size.bans,
			Seed:            42,
		})
		sys, err := sc.System()
		if err != nil {
			b.Fatal(err)
		}
		mk := func(tb testing.TB) (*muppet.Party, *muppet.Party) {
			k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), sc.K8sGoals)
			if err != nil {
				tb.Fatal(err)
			}
			istioParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), sc.IstioRelaxed)
			if err != nil {
				tb.Fatal(err)
			}
			return k8sParty, istioParty
		}
		prefix := fmt.Sprintf("services=%d", size.services)
		// Party construction (goal compilation + offer expansion) is a
		// distinct cost from solving; it gets its own sub-benchmark and is
		// hoisted out of the solve timings (none of the three query kinds
		// mutates the parties).
		b.Run(prefix+"/setup", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mk(b)
			}
		})
		k8sParty, istioParty := mk(b)
		b.Run(prefix+"/consistency", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := muppet.LocalConsistency(sys, k8sParty, []*muppet.Party{istioParty}); !res.OK {
					b.Fatal("must be consistent")
				}
			}
		})
		b.Run(prefix+"/envelope", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if env := muppet.ComputeEnvelope(sys, istioParty, []*muppet.Party{k8sParty}); env.Trivial() {
					b.Fatal("envelope must be non-trivial")
				}
			}
		})
		b.Run(prefix+"/reconcile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := muppet.Reconcile(sys, []*muppet.Party{k8sParty, istioParty}); !res.OK {
					b.Fatal("must reconcile")
				}
			}
		})
		// Warm variants serve every iteration from one live SolveCache
		// session — the repeated-query pattern of the negotiation and
		// conformance workflows.
		b.Run(prefix+"/consistency-warm", func(b *testing.B) {
			cache := muppet.NewSolveCache()
			ctx := context.Background()
			// Prime outside the timer: without this, b.N=1 runs (the larger
			// sizes) time the cold session build and report it as "warm".
			if res := cache.LocalConsistencyCtx(ctx, sys, k8sParty, []*muppet.Party{istioParty}, muppet.Budget{}); !res.OK {
				b.Fatal("must be consistent")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := cache.LocalConsistencyCtx(ctx, sys, k8sParty, []*muppet.Party{istioParty}, muppet.Budget{}); !res.OK {
					b.Fatal("must be consistent")
				}
			}
			reportReuse(b, cache.Stats())
		})
		b.Run(prefix+"/reconcile-warm", func(b *testing.B) {
			cache := muppet.NewSolveCache()
			ctx := context.Background()
			// Prime outside the timer (see consistency-warm).
			if res := cache.ReconcileCtx(ctx, sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{}); !res.OK {
				b.Fatal("must reconcile")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := cache.ReconcileCtx(ctx, sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{}); !res.OK {
					b.Fatal("must reconcile")
				}
			}
			reportReuse(b, cache.Stats())
		})
	}
}

// reportReuse surfaces SolveCache effectiveness and encoding sizes as
// benchmark metrics, so each run prints how big the live clause databases
// were and how much preprocessing removed.
func reportReuse(b *testing.B, st muppet.ReuseStats) {
	b.ReportMetric(float64(st.Reuses), "session-reuses")
	if total := st.Translation.Hits() + st.Translation.Misses; total > 0 {
		b.ReportMetric(float64(st.Translation.Hits())/float64(total), "xlate-hit-rate")
	}
	b.ReportMetric(float64(st.Encoding.CircuitNodes), "circuit-nodes")
	b.ReportMetric(float64(st.Encoding.SolverVars), "solver-vars")
	b.ReportMetric(float64(st.Encoding.SolverClauses), "solver-clauses")
	b.ReportMetric(float64(st.Encoding.VarsEliminated), "vars-eliminated")
	b.ReportMetric(float64(st.Encoding.ClausesRemoved), "clauses-removed")
	b.ReportMetric(float64(st.Encoding.ArenaBytes), "arena-bytes")
	b.ReportMetric(float64(st.Encoding.ChronoBacktracks), "chrono-backtracks")
	b.ReportMetric(float64(st.Encoding.OTFSubsumed), "otf-subsumed")
}

// BenchmarkAlg2ReconcileWarm is Alg. 2 on the walkthrough served from a
// live SolveCache session: the incremental-reuse counterpart of
// BenchmarkAlg2Reconcile.
func BenchmarkAlg2ReconcileWarm(b *testing.B) {
	w := loadWalkthrough(b)
	k8sParty, istioParty := w.parties(b, w.relaxed, muppet.AllSoft(), muppet.AllSoft())
	cache := muppet.NewSolveCache()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cache.ReconcileCtx(ctx, w.sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{})
		if !res.OK {
			b.Fatal("Fig. 4 goals must reconcile")
		}
	}
	reportReuse(b, cache.Stats())
}

// BenchmarkParallelConsistency serves independent consistency queries from
// GOMAXPROCS goroutines sharing one System: the concurrent query-serving
// throughput of the Sec. 5 deployment scenario. Each goroutine owns its
// parties and its SolveCache (those are single-goroutine by design).
func BenchmarkParallelConsistency(b *testing.B) {
	w := loadWalkthrough(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k8sParty, istioParty := w.parties(b, nil, muppet.Offer{}, muppet.AllHoles())
		cache := muppet.NewSolveCache()
		ctx := context.Background()
		for pb.Next() {
			if res := cache.LocalConsistencyCtx(ctx, w.sys, k8sParty, []*muppet.Party{istioParty}, muppet.Budget{}); !res.OK {
				b.Fatal("provider must be consistent")
			}
		}
	})
}

// --- ablations (DESIGN.md Sec. 6) ---

// fig1Problem builds the reconcilable Fig. 1 problem at the relational
// level so solver/factory options can be varied.
func fig1Problem(b testing.TB) (*encode.System, relational.Formula, *relational.Bounds) {
	b.Helper()
	w := loadWalkthrough(b)
	sys := w.sys
	fk, err := sys.CompileK8sGoals(w.k8sGoals)
	if err != nil {
		b.Fatal(err)
	}
	fi, err := sys.CompileIstioGoals(w.relaxed)
	if err != nil {
		b.Fatal(err)
	}
	bounds := sys.NewBounds()
	sys.BindK8s(bounds, &muppet.K8sConfig{}, muppet.AllHoles())
	sys.BindIstio(bounds, &muppet.IstioConfig{}, muppet.AllHoles())
	return sys, relational.And(fk, fi), bounds
}

func benchSolveWith(b *testing.B, satOpts sat.Options, circOpts boolcirc.Options) {
	_, f, bounds := fig1Problem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss := relational.NewSessionWith(bounds,
			boolcirc.NewWithOptions(circOpts),
			sat.NewWithOptions(satOpts))
		ss.Assert(f)
		if ss.Solve() != sat.Sat {
			b.Fatal("expected SAT")
		}
	}
}

// BenchmarkAblationDefault is the reference configuration.
func BenchmarkAblationDefault(b *testing.B) {
	benchSolveWith(b, sat.Options{}, boolcirc.Options{})
}

// BenchmarkAblationNoLearning disables CDCL clause learning.
func BenchmarkAblationNoLearning(b *testing.B) {
	benchSolveWith(b, sat.Options{DisableLearning: true}, boolcirc.Options{})
}

// BenchmarkAblationNoHashCons disables structural sharing in the circuit
// factory.
func BenchmarkAblationNoHashCons(b *testing.B) {
	benchSolveWith(b, sat.Options{}, boolcirc.Options{NoHashCons: true})
}

// BenchmarkDeltaReconcile is the full-vs-delta pair for incremental
// re-reconciliation at the services=12 scenario: a one-tuple goal edit
// (one ban flipped to an allow) arrives as a new revision, and the
// daemon either rebuilds from scratch (cold) or serves it through the
// delta path — snapshot, diff, warm rebase — from the previous
// revision's live sessions (delta). The delta sub-benchmark times the
// whole watch-mode step, diff computation included.
func BenchmarkDeltaReconcile(b *testing.B) {
	sc := muppet.GenerateScenario(muppet.ScenarioParams{
		Services:        12,
		PortsPerService: 2,
		Flows:           12,
		BannedPorts:     2,
		Seed:            42,
	})
	sys, err := sc.System()
	if err != nil {
		b.Fatal(err)
	}
	mk := func(kg []muppet.K8sGoal) []*muppet.Party {
		k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), kg)
		if err != nil {
			b.Fatal(err)
		}
		istioParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), sc.IstioRelaxed)
		if err != nil {
			b.Fatal(err)
		}
		return []*muppet.Party{k8sParty, istioParty}
	}
	// Revision B flips the first ban to an allow: same ports, same
	// universe — the canonical compatible one-tuple edit.
	goalsB := append([]muppet.K8sGoal(nil), sc.K8sGoals...)
	goalsB[0].Allow = !goalsB[0].Allow
	partiesA, partiesB := mk(sc.K8sGoals), mk(goalsB)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ps := partiesA
			if i%2 == 1 {
				ps = partiesB
			}
			if res := muppet.Reconcile(sys, ps); !res.OK {
				b.Fatal("scenario must reconcile")
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		cache := muppet.NewSolveCache()
		ctx := context.Background()
		prev := muppet.Snapshot(sys, partiesA)
		if res := cache.ReconcileCtx(ctx, sys, partiesA, muppet.Budget{}); !res.OK {
			b.Fatal("scenario must reconcile")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps := partiesB
			if i%2 == 1 {
				ps = partiesA
			}
			next := muppet.Snapshot(sys, ps)
			plan := muppet.CompareRevisions(prev, next)
			if !plan.Compatible {
				b.Fatalf("revisions must be compatible: %s", plan.Reason)
			}
			var res *muppet.Result
			ds := cache.Rebase(plan, func() {
				res = cache.ReconcileCtx(ctx, sys, ps, muppet.Budget{})
			})
			if !res.OK {
				b.Fatal("scenario must reconcile")
			}
			if ds.Cold {
				b.Fatalf("delta serving went cold: %s", ds.Reason)
			}
			prev = next
		}
		b.StopTimer()
		st := cache.Stats()
		reportReuse(b, st)
		b.ReportMetric(float64(st.Encoding.Restored), "restored")
	})
}

// BenchmarkAblationEnvelopeNoSimplify computes the Fig. 5 envelope without
// the elementary-simplification pass, reporting size and leakage through
// custom metrics.
func BenchmarkAblationEnvelopeNoSimplify(b *testing.B) {
	w := loadWalkthrough(b)
	sys := w.sys
	fk, err := sys.CompileK8sGoals(w.k8sGoals)
	if err != nil {
		b.Fatal(err)
	}
	sender := sys.SenderTupleSets(w.bundle.K8s, nil, nil)
	for _, mode := range []struct {
		name string
		opts envelope.Options
	}{
		{"simplify", envelope.Options{Shared: sys.SharedTupleSets()}},
		{"raw", envelope.Options{NoSimplify: true, Shared: sys.SharedTupleSets()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var env *envelope.Envelope
			for i := 0; i < b.N; i++ {
				env = envelope.Compute("K8s", "Istio",
					[]relational.Formula{fk}, sender, sys.IstioRelations(), sys.Universe, mode.opts)
			}
			b.ReportMetric(float64(env.Size()), "nodes")
			b.ReportMetric(float64(len(env.LeakedAtoms())), "leaked-atoms")
		})
	}
}
