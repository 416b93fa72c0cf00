package muppet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"muppet"
	"muppet/internal/boolcirc"
	"muppet/internal/feder"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/server"
	tenantpool "muppet/internal/tenant"
)

// The encoding cross-check suite asserts the core promise of the encoding
// pipeline (polarity-aware Tseitin, CNF preprocessing): every
// configuration — including the legacy seed encoding with both off —
// produces byte-identical verdicts, canonical models, edits, blame cores,
// and negotiation transcripts. The optimisations may only change
// encoding size and speed, never observable output.

// encodingConfigs spans the ablation lattice from the full pipeline to
// the seed encoding.
var encodingConfigs = []struct {
	name string
	enc  muppet.Encoding
}{
	{"full", muppet.Encoding{}},
	{"no-simp", muppet.Encoding{NoPreprocess: true}},
	{"no-polarity", muppet.Encoding{NoPolarity: true}},
	{"legacy", muppet.Encoding{NoPolarity: true, NoPreprocess: true}},
}

// withEncoding runs f under e, restoring the previous configuration.
func withEncoding(e muppet.Encoding, f func()) {
	prev := muppet.SetEncoding(e)
	defer muppet.SetEncoding(prev)
	f()
}

// TestEncodingCrossCheckExec drives every mediation op the daemon serves
// over the Fig. 1 inputs — in both the reconcilable (relaxed) and the
// conflicting (strict, blame-core-producing) variants — and requires the
// rendered output and exit code to be byte-identical across encodings.
func TestEncodingCrossCheckExec(t *testing.T) {
	states := []struct {
		name string
		cfg  server.Config
	}{
		{"relaxed", server.Config{
			Files:      "testdata/fig1/mesh.yaml,testdata/fig1/k8s_current.yaml,testdata/fig1/istio_current.yaml",
			K8sGoals:   "testdata/fig1/k8s_goals.csv",
			IstioGoals: "testdata/fig1/istio_goals_revised.csv",
			K8sOffer:   "soft",
			IstioOffer: "soft",
		}},
		{"strict", server.Config{
			Files:      "testdata/fig1/mesh.yaml,testdata/fig1/k8s_current.yaml,testdata/fig1/istio_current.yaml",
			K8sGoals:   "testdata/fig1/k8s_goals.csv",
			IstioGoals: "testdata/fig1/istio_goals.csv",
			K8sOffer:   "fixed",
			IstioOffer: "soft",
		}},
	}
	reqs := []server.Request{
		{Op: "check", Party: "k8s"},
		{Op: "check", Party: "istio"},
		{Op: "envelope", From: "k8s", To: "istio", Leakage: true},
		{Op: "reconcile"},
		{Op: "conform", Provider: "k8s"},
		{Op: "negotiate"},
	}
	for _, stc := range states {
		st, err := server.Load(stc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			req := req
			t.Run(stc.name+"/"+req.Op+"/"+req.Party, func(t *testing.T) {
				type outcome struct {
					code   int
					output string
				}
				var base outcome
				for i, cfg := range encodingConfigs {
					var got outcome
					withEncoding(cfg.enc, func() {
						resp, err := server.Exec(context.Background(), st, muppet.NewSolveCache(), req, muppet.Budget{})
						if err != nil {
							t.Fatalf("%s: %v", cfg.name, err)
						}
						got = outcome{resp.Code, resp.Output}
					})
					if i == 0 {
						base = got
						continue
					}
					if got.code != base.code {
						t.Fatalf("%s: code %d, full pipeline %d", cfg.name, got.code, base.code)
					}
					if got.output != base.output {
						t.Fatalf("%s output differs from full pipeline:\n--- full ---\n%s\n--- %s ---\n%s",
							cfg.name, base.output, cfg.name, got.output)
					}
				}
			})
		}
	}
}

// renderResult flattens everything observable about a workflow result.
func renderResult(res *muppet.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ok=%v indeterminate=%v stop=%v\n", res.OK, res.Indeterminate, res.Stop)
	for _, e := range res.Edits {
		fmt.Fprintf(&b, "edit: %s\n", e.String())
	}
	if res.Feedback != nil {
		fmt.Fprintln(&b, res.Feedback.String())
	}
	return b.String()
}

// TestEncodingCrossCheckScenarios sweeps generated scenarios (the Fig. 8
// corpus shape) through consistency, reconciliation — against both the
// relaxed and the conflicting strict goals — and full negotiations,
// comparing adopted configurations, edits, and blame across encodings.
func TestEncodingCrossCheckScenarios(t *testing.T) {
	for _, services := range []int{3, 6, 12} {
		sc := muppet.GenerateScenario(muppet.ScenarioParams{
			Services:        services,
			PortsPerService: 2,
			Flows:           services,
			BannedPorts:     1 + services/8,
			Seed:            42,
		})
		sys, err := sc.System()
		if err != nil {
			t.Fatal(err)
		}
		run := func(strict bool) string {
			ig := sc.IstioRelaxed
			if strict {
				ig = sc.IstioStrict
			}
			k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), sc.K8sGoals)
			if err != nil {
				t.Fatal(err)
			}
			istioParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), ig)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			lc := muppet.LocalConsistency(sys, k8sParty, []*muppet.Party{istioParty})
			fmt.Fprintf(&b, "consistency:\n%s", renderResult(lc))
			rec := muppet.Reconcile(sys, []*muppet.Party{k8sParty, istioParty})
			fmt.Fprintf(&b, "reconcile:\n%s", renderResult(rec))
			if rec.OK {
				k8sParty.Adopt(rec.Instance)
				istioParty.Adopt(rec.Instance)
				b.WriteString(k8sParty.Describe())
				b.WriteString(istioParty.Describe())
			}
			out := muppet.NewNegotiation(sys, k8sParty, istioParty).Run()
			fmt.Fprintf(&b, "negotiation: reconciled=%v reason=%v rounds=%d\n",
				out.Reconciled, out.Reason, len(out.Rounds))
			return b.String()
		}
		for _, strict := range []bool{false, true} {
			name := fmt.Sprintf("services=%d/strict=%v", services, strict)
			t.Run(name, func(t *testing.T) {
				var base string
				for i, cfg := range encodingConfigs {
					var got string
					withEncoding(cfg.enc, func() { got = run(strict) })
					if i == 0 {
						base = got
					} else if got != base {
						t.Fatalf("%s differs from full pipeline:\n--- full ---\n%s\n--- %s ---\n%s",
							cfg.name, base, cfg.name, got)
					}
				}
			})
		}
	}
}

// TestMultiTenantServingMatchesColdExec extends the cross-check promise
// to the multi-tenant daemon: every op served from a tenant's warm cache
// pool over HTTP must be byte-identical to a cold one-shot execution of
// the same bundle (the CLI path, nil cache). Two rounds per tenant make
// the second round answer from reused sessions, so warm-vs-cold parity —
// not just determinism — is what's being checked.
func TestMultiTenantServingMatchesColdExec(t *testing.T) {
	dir := t.TempDir()
	mkCfg := func(id, goalsCSV string) server.Config {
		p := filepath.Join(dir, id+"_k8s_goals.csv")
		if err := os.WriteFile(p, []byte(goalsCSV), 0o644); err != nil {
			t.Fatal(err)
		}
		return server.Config{
			Files:      "testdata/fig1/mesh.yaml,testdata/fig1/k8s_current.yaml,testdata/fig1/istio_current.yaml",
			K8sGoals:   p,
			IstioGoals: "testdata/fig1/istio_goals_revised.csv",
			K8sOffer:   "soft",
			IstioOffer: "soft",
		}
	}
	cfgs := map[string]server.Config{
		"alpha": mkCfg("alpha", "port,perm,selector\n23,DENY,*\n"),
		"bravo": mkCfg("bravo", "port,perm,selector\n24,DENY,*\n"),
	}

	reg := tenantpool.NewRegistry[*server.State](tenantpool.NewLedger(0))
	for id, cfg := range cfgs {
		if _, err := reg.Add(id, server.LoaderFromConfig(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	s := server.NewMulti(reg, server.Options{Concurrency: 2, QueueDepth: 16})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	reqs := []server.Request{
		{Op: "check", Party: "k8s"},
		{Op: "envelope", From: "k8s", To: "istio", Leakage: true},
		{Op: "reconcile"},
		{Op: "negotiate"},
	}
	for id, cfg := range cfgs {
		st, err := server.Load(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			cold, err := server.Exec(context.Background(), st, nil, req, muppet.Budget{})
			if err != nil {
				t.Fatalf("%s/%s cold: %v", id, req.Op, err)
			}
			for round := 0; round < 2; round++ {
				body, _ := json.Marshal(req)
				res, err := http.Post(hs.URL+"/t/"+id+"/"+req.Op, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatalf("%s/%s round %d: %v", id, req.Op, round, err)
				}
				var warm server.Response
				derr := json.NewDecoder(res.Body).Decode(&warm)
				res.Body.Close()
				if derr != nil || res.StatusCode != http.StatusOK {
					t.Fatalf("%s/%s round %d: HTTP %d, decode %v", id, req.Op, round, res.StatusCode, derr)
				}
				if warm.Code != cold.Code || warm.Output != cold.Output {
					t.Fatalf("%s/%s round %d: served answer differs from cold exec\n--- cold (code %d) ---\n%s\n--- served (code %d) ---\n%s",
						id, req.Op, round, cold.Code, cold.Output, warm.Code, warm.Output)
				}
			}
		}
	}
}

// TestFig1EncodingSizes pins, per encoding configuration, the encoding of
// the Fig. 1 reconciliation: exact sizes, so a collapse fails as loudly
// as a blow-up, and allocations and bytes per build-and-solve within 25%
// either side of the values recorded when the test was written.
// Preprocessing is forced on (SimpMinClauses: -1) so the simp stage is
// measurable at walkthrough scale, where production sessions defer it.
func TestFig1EncodingSizes(t *testing.T) {
	_, f, bounds := fig1Problem(t)
	for _, c := range []struct {
		name                                    string
		sat                                     sat.Options
		cnf                                     boolcirc.CNFOptions
		clauses, varsEliminated, clausesRemoved int
		allocs, bytes                           float64
	}{
		{"full", sat.Options{}, boolcirc.CNFOptions{}, 201, 191, 217, 5792, 751013},
		{"no-polarity", sat.Options{}, boolcirc.CNFOptions{NoPolarity: true}, 260, 177, 393, 6349, 885228},
		{"no-simp", sat.Options{DisableSimp: true}, boolcirc.CNFOptions{}, 492, 0, 0, 5181, 473920},
		{"legacy", sat.Options{DisableSimp: true}, boolcirc.CNFOptions{NoPolarity: true}, 801, 0, 0, 5800, 532465},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := c.sat
			opts.SimpMinClauses = -1
			solve := func() *relational.Session {
				ss := relational.NewSessionWithOptions(bounds, boolcirc.New(), sat.NewWithOptions(opts), c.cnf)
				ss.Assert(f)
				if ss.Solve() != sat.Sat {
					t.Fatal("expected SAT")
				}
				return ss
			}
			ss := solve()
			s := ss.Solver()
			got := [5]int{ss.CNF().Factory().NumNodes(), s.NumVars(), s.NumClauses(),
				int(s.Stats.SimpVarsEliminated), int(s.Stats.SimpClausesRemoved)}
			want := [5]int{390, 377, c.clauses, c.varsEliminated, c.clausesRemoved}
			if got != want {
				t.Errorf("nodes, vars, clauses, vars eliminated, clauses removed = %v, want %v", got, want)
			}
			allocs := testing.AllocsPerRun(20, func() { solve() })
			bytes := bytesPerRun(20, func() { solve() })
			t.Logf("%.0f allocs, %.0f bytes per run", allocs, bytes)
			checkWithin25(t, "allocs per run", allocs, c.allocs)
			checkWithin25(t, "bytes per run", bytes, c.bytes)
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes one
// call of f allocates, measured at GOMAXPROCS=1 after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// checkWithin25 fails t unless got is within 25% of want either way.
func checkWithin25(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got < 0.75*want || got > 1.25*want {
		t.Errorf("%s = %.0f, want %.0f ± 25%%", what, got, want)
	}
}

// TestEncodingShrinks pins the headline claim: on a mid-size scenario the
// full pipeline's post-preprocessing clause count is at least 30% below
// the legacy (seed) encoding's.
func TestEncodingShrinks(t *testing.T) {
	sc := muppet.GenerateScenario(muppet.ScenarioParams{
		Services: 12, PortsPerService: 2, Flows: 12, BannedPorts: 2, Seed: 42,
	})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	measure := func(enc muppet.Encoding) muppet.EncodingStats {
		var st muppet.EncodingStats
		withEncoding(enc, func() {
			k8sParty, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), sc.K8sGoals)
			if err != nil {
				t.Fatal(err)
			}
			istioParty, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), sc.IstioRelaxed)
			if err != nil {
				t.Fatal(err)
			}
			cache := muppet.NewSolveCache()
			if res := cache.ReconcileCtx(context.Background(), sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{}); !res.OK {
				t.Fatal("must reconcile")
			}
			st = cache.Stats().Encoding
		})
		return st
	}
	full := measure(muppet.Encoding{})
	legacy := measure(muppet.Encoding{NoPolarity: true, NoPreprocess: true})
	t.Logf("full: %+v", full)
	t.Logf("legacy: %+v", legacy)
	if full.SolverClauses >= legacy.SolverClauses {
		t.Fatalf("full pipeline has %d clauses, legacy %d", full.SolverClauses, legacy.SolverClauses)
	}
	reduction := 1 - float64(full.SolverClauses)/float64(legacy.SolverClauses)
	if reduction < 0.30 {
		t.Fatalf("clause reduction %.1f%% below the 30%% target (full %d, legacy %d)",
			100*reduction, full.SolverClauses, legacy.SolverClauses)
	}
	// The seed fixes the scenario, so the sizes are exact: a change that
	// moves them updates this pin and says why.
	if full.SolverClauses != 25098 || legacy.SolverClauses != 84763 {
		t.Fatalf("full %d, legacy %d clauses, want exactly 25098 and 84763",
			full.SolverClauses, legacy.SolverClauses)
	}
}

// TestFederatedServingMatchesSingleProcess is the end-to-end daemon-level
// parity check: a coordinator state driving `negotiate` against two
// loopback muppetd peers (each loaded with ONLY its own goals, as real
// trust domains would be) must render byte-identical output to the
// single-process negotiate arm — across every encoding configuration —
// and leave a verifiable transcript. The peer configs carry explicit
// -ports unions so all three universes fingerprint identically.
func TestFederatedServingMatchesSingleProcess(t *testing.T) {
	files := "testdata/fig1/mesh.yaml,testdata/fig1/k8s_current.yaml,testdata/fig1/istio_current.yaml"
	variants := []struct {
		name                      string
		coord, k8sPeer, istioPeer server.Config
	}{
		{
			name: "relaxed",
			coord: server.Config{
				Files:    files,
				K8sGoals: "testdata/fig1/k8s_goals.csv", K8sOffer: "soft",
				IstioGoals: "testdata/fig1/istio_goals_revised.csv", IstioOffer: "soft",
			},
			// The K8s daemon never sees Istio's goals; it learns the Istio
			// goal ports only as universe atoms (and vice versa).
			k8sPeer: server.Config{
				Files:    files,
				K8sGoals: "testdata/fig1/k8s_goals.csv", K8sOffer: "soft",
				Ports: "10000,12000,14000,16000",
			},
			istioPeer: server.Config{
				Files:      files,
				IstioGoals: "testdata/fig1/istio_goals_revised.csv", IstioOffer: "soft",
				Ports: "23",
			},
		},
		{
			name: "strict",
			coord: server.Config{
				Files:    files,
				K8sGoals: "testdata/fig1/k8s_goals.csv", K8sOffer: "fixed",
				IstioGoals: "testdata/fig1/istio_goals.csv", IstioOffer: "soft",
			},
			k8sPeer: server.Config{
				Files:    files,
				K8sGoals: "testdata/fig1/k8s_goals.csv", K8sOffer: "fixed",
				Ports: "24,25,26,10000,12000,14000,16000",
			},
			istioPeer: server.Config{
				Files:      files,
				IstioGoals: "testdata/fig1/istio_goals.csv", IstioOffer: "soft",
				Ports: "23",
			},
		},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			load := func(cfg server.Config) *server.State {
				st, err := server.Load(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			stCo, stK8s, stIstio := load(v.coord), load(v.k8sPeer), load(v.istioPeer)
			for name, st := range map[string]*server.State{"k8s": stK8s, "istio": stIstio} {
				if got, want := feder.SystemFingerprint(st.Sys), feder.SystemFingerprint(stCo.Sys); got != want {
					t.Fatalf("%s peer universe drifted from the coordinator's: %s vs %s", name, got, want)
				}
			}

			k8sD := server.New(stK8s, server.Options{Concurrency: 1, FedParty: "k8s"})
			defer k8sD.Close()
			k8sSrv := httptest.NewServer(k8sD)
			defer k8sSrv.Close()
			istioD := server.New(stIstio, server.Options{Concurrency: 1, FedParty: "istio"})
			defer istioD.Close()
			istioSrv := httptest.NewServer(istioD)
			defer istioSrv.Close()

			peers := "k8s=" + k8sSrv.URL + ",istio=" + istioSrv.URL
			key := []byte("crosscheck-transcript-key")
			for _, cfg := range encodingConfigs {
				cfg := cfg
				t.Run(cfg.name, func(t *testing.T) {
					withEncoding(cfg.enc, func() {
						ctx := context.Background()
						base, err := server.Exec(ctx, stCo, muppet.NewSolveCache(),
							server.Request{Op: "negotiate"}, muppet.Budget{})
						if err != nil {
							t.Fatal(err)
						}
						var transcript bytes.Buffer
						fed, err := server.ExecFed(ctx, stCo, muppet.NewSolveCache(),
							server.Request{Op: "negotiate", Peers: peers}, muppet.Budget{},
							&server.FedOptions{Seed: 11, Transcript: feder.NewTranscriptWriter(&transcript, key)})
						if err != nil {
							t.Fatal(err)
						}
						if fed.Code != base.Code {
							t.Fatalf("federated code %d, single-process %d\n--- federated ---\n%s", fed.Code, base.Code, fed.Output)
						}
						if fed.Output != base.Output {
							t.Fatalf("federated output differs from single-process:\n--- single-process ---\n%s\n--- federated ---\n%s",
								base.Output, fed.Output)
						}
						n, err := feder.VerifyTranscript(bytes.NewReader(transcript.Bytes()), key)
						if err != nil {
							t.Fatalf("transcript: %v", err)
						}
						if n == 0 {
							t.Fatal("federated run left an empty transcript")
						}
					})
				})
			}
		})
	}
}

// TestThreePartyFederatedMatchesSingleProcess extends the parity claim
// past the paper's two-party walkthrough: a third party (security
// operations, owning its own NetworkPolicy shell over the db service)
// joins the negotiation, and the coordinator over three loopback peers
// must replay the three-party single-process loop exactly.
func TestThreePartyFederatedMatchesSingleProcess(t *testing.T) {
	bundle, err := muppet.LoadFiles(
		"testdata/fig1/mesh.yaml", "testdata/fig1/k8s_current.yaml", "testdata/fig1/istio_current.yaml")
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
	secopsShell := &muppet.NetworkPolicy{Name: "secops", Selector: map[string]string{"app": "db"}}
	secopsGoals := []muppet.K8sGoal{{Port: 16000, Allow: false, Selector: map[string]string{"app": "backend"}}}
	secopsCfg := &muppet.K8sConfig{Policies: []*muppet.NetworkPolicy{secopsShell}}
	shells := append(append([]*muppet.NetworkPolicy{}, bundle.K8s.Policies...), secopsShell)
	sys, err := muppet.NewSystem(bundle.Mesh, shells, bundle.Istio.Policies,
		[]int{23, 10000, 12000, 14000, 16000})
	if err != nil {
		t.Fatal(err)
	}

	// mkParty builds a fresh party by slot; the constructors clone
	// configurations, so baseline, replicas, and peers never share
	// mutable state. (No t.Fatal here — peers call it from HTTP handler
	// goroutines.)
	mkParty := func(i int) (*feder.LocalParty, error) {
		switch i {
		case 0:
			return feder.NewLocalK8s(sys, bundle.K8s, muppet.AllSoft(), kg, "")
		case 1:
			return feder.NewLocalK8s(sys, secopsCfg, muppet.AllSoft(), secopsGoals, "SecOps")
		default:
			return feder.NewLocalIstio(sys, bundle.Istio, muppet.AllSoft(), ig, "")
		}
	}
	parties := func() []*feder.LocalParty {
		out := make([]*feder.LocalParty, 3)
		for i := range out {
			lp, err := mkParty(i)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = lp
		}
		return out
	}

	baseParties := parties()
	base := muppet.NewNegotiation(sys, baseParties[0].P, baseParties[1].P, baseParties[2].P).Run()

	var peerRefs []feder.PeerRef
	for i, lp := range parties() {
		i := i
		srv := httptest.NewServer(feder.NewPeer(sys, func() (*feder.LocalParty, error) {
			return mkParty(i)
		}, feder.PeerHooks{}).Handler())
		defer srv.Close()
		peerRefs = append(peerRefs, feder.PeerRef{Name: lp.P.Name, URL: srv.URL})
	}
	replicas := parties()
	co, err := feder.NewCoordinator(sys, replicas, peerRefs, feder.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fed := co.Run(context.Background(), muppet.Budget{})

	if fed.Reconciled != base.Reconciled || fed.InitialReconcile != base.InitialReconcile ||
		fed.Reason.String() != base.Reason.String() || len(fed.Rounds) != len(base.Rounds) {
		t.Fatalf("three-party outcome diverged: federated rec=%v initial=%v reason=%s rounds=%d; single-process rec=%v initial=%v reason=%s rounds=%d",
			fed.Reconciled, fed.InitialReconcile, fed.Reason, len(fed.Rounds),
			base.Reconciled, base.InitialReconcile, base.Reason, len(base.Rounds))
	}
	for i, fr := range fed.Rounds {
		br := base.Rounds[i]
		if fr.Party != br.Party || fr.ConformedAlready != br.ConformedAlready || fr.Revised != br.Revised ||
			fr.Stuck != br.Stuck || fr.Reconciled != br.Reconciled || len(fr.Edits) != len(br.Edits) {
			t.Fatalf("three-party round %d diverged: federated %+v, single-process %+v", i+1, fr, br)
		}
	}
	for i, names := range []string{"K8s", "SecOps", "Istio"} {
		if got, want := replicas[i].P.Describe(), baseParties[i].P.Describe(); got != want {
			t.Fatalf("%s replica configuration diverged:\n--- federated ---\n%s\n--- single-process ---\n%s", names, got, want)
		}
	}
	t.Logf("three-party outcome: reconciled=%v initial=%v rounds=%d", fed.Reconciled, fed.InitialReconcile, len(fed.Rounds))
}
