// Integration and chaos tests for the federated negotiation protocol:
// loopback peers served over real HTTP, a coordinator running the
// single-process loop, deterministic fault injection, peer restarts, and
// breaker behaviour against a dead peer. External test package so it can
// drive the server-layer state loader without an import cycle.
package feder_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"muppet"
	"muppet/internal/faultinject"
	"muppet/internal/feder"
	"muppet/internal/server"
)

const fig1Dir = "../../testdata/fig1/"

// fedConfig builds the walkthrough bundle config. "relaxed" reconciles on
// the initial joint solve (exercising join + final install); "strict"
// (fixed K8s offer, conflicting Istio goals) runs a deterministic 4-round
// trace — two K8s revisions, two Istio stucks — ending exhausted-rounds,
// exercising propose/envelope/counter-offer traffic.
func fedConfig(strict bool) server.Config {
	cfg := server.Config{
		Files: fig1Dir + "mesh.yaml," + fig1Dir + "k8s_current.yaml," + fig1Dir + "istio_current.yaml",

		K8sGoals:   fig1Dir + "k8s_goals.csv",
		K8sOffer:   "soft",
		IstioGoals: fig1Dir + "istio_goals_revised.csv",
		IstioOffer: "soft",
	}
	if strict {
		cfg.K8sOffer = "fixed"
		cfg.IstioGoals = fig1Dir + "istio_goals.csv"
	}
	return cfg
}

func fedState(t *testing.T, strict bool) *server.State {
	t.Helper()
	st, err := server.Load(fedConfig(strict))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startPeer serves one party's side of the protocol over loopback HTTP.
// wrap (optional) interposes middleware — fault injection — around the
// peer handler.
func startPeer(t *testing.T, st *server.State, kind string, hooks feder.PeerHooks, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	peer := feder.NewPeer(st.Sys, func() (*feder.LocalParty, error) { return st.FedParty(kind) }, hooks)
	var h http.Handler = peer.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// fastOpts keeps retry/breaker machinery on but makes its delays test-
// sized.
func fastOpts() feder.Options {
	return feder.Options{
		Retries:          4,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BreakerThreshold: 6,
		BreakerCooldown:  20 * time.Millisecond,
		Seed:             7,
	}
}

// hooks records what a coordinator run reports through Options.OnRetry
// and OnBreaker, the hooks behind /metrics and muppet -v: each peer's
// retry count and final breaker position.
type hooks struct {
	mu       sync.Mutex
	retries  map[string]int64
	breakers map[string]feder.BreakerState
}

// observe installs recording hooks on opts.
func observe(opts *feder.Options) *hooks {
	h := &hooks{retries: map[string]int64{}, breakers: map[string]feder.BreakerState{}}
	opts.OnRetry = func(peer string) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.retries[peer]++
	}
	opts.OnBreaker = func(peer string, st feder.BreakerState) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.breakers[peer] = st
	}
	return h
}

// breaker reports the peer's published breaker position; ok is false
// when none was published.
func (h *hooks) breaker(peer string) (st feder.BreakerState, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok = h.breakers[peer]
	return st, ok
}

// retried reports the retries published for peer.
func (h *hooks) retried(peer string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.retries[peer]
}

// hangGuard bounds a coordinator run, through its context and its solver
// budget, far above any real run.
func hangGuard(t *testing.T) (context.Context, muppet.Budget) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	deadline, _ := ctx.Deadline()
	return ctx, muppet.Budget{Deadline: deadline}
}

func newCoordinator(t *testing.T, st *server.State, k8sURL, istioURL string, opts feder.Options) (*feder.Coordinator, []*feder.LocalParty) {
	t.Helper()
	replicas, err := st.FedReplicas()
	if err != nil {
		t.Fatal(err)
	}
	co, err := feder.NewCoordinator(st.Sys, replicas, []feder.PeerRef{
		{Name: "k8s", URL: k8sURL},
		{Name: "istio", URL: istioURL},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return co, replicas
}

// singleProcess runs the in-process Fig. 9 loop on a fresh state and
// returns its outcome plus the parties' final configurations.
func singleProcess(t *testing.T, strict bool) (*muppet.NegotiationOutcome, string, string) {
	t.Helper()
	st := fedState(t, strict)
	k8s, istio, err := st.FreshParties()
	if err != nil {
		t.Fatal(err)
	}
	out := muppet.NewNegotiation(st.Sys, k8s, istio).RunCtx(context.Background(), muppet.Budget{})
	return out, k8s.Describe(), istio.Describe()
}

// requireParity asserts a federated outcome matches the single-process
// baseline round for round.
func requireParity(t *testing.T, fed, base *muppet.NegotiationOutcome) {
	t.Helper()
	if fed.Reconciled != base.Reconciled || fed.InitialReconcile != base.InitialReconcile {
		t.Fatalf("reconciled %v/%v, single-process %v/%v",
			fed.Reconciled, fed.InitialReconcile, base.Reconciled, base.InitialReconcile)
	}
	if fed.Reason.String() != base.Reason.String() {
		t.Fatalf("reason %q, single-process %q", fed.Reason, base.Reason)
	}
	if len(fed.Rounds) != len(base.Rounds) {
		t.Fatalf("%d rounds, single-process %d", len(fed.Rounds), len(base.Rounds))
	}
	for i, fr := range fed.Rounds {
		br := base.Rounds[i]
		if fr.Party != br.Party || fr.ConformedAlready != br.ConformedAlready ||
			fr.Revised != br.Revised || fr.Stuck != br.Stuck ||
			fr.Reconciled != br.Reconciled || len(fr.Edits) != len(br.Edits) {
			t.Fatalf("round %d diverged: federated %+v, single-process party=%s conformed=%v revised=%v stuck=%v rec=%v edits=%d",
				i+1, fr, br.Party, br.ConformedAlready, br.Revised, br.Stuck, br.Reconciled, len(br.Edits))
		}
	}
}

// peerDescribe fetches the peer's rendered configuration for a session.
func peerDescribe(t *testing.T, url, session string) string {
	t.Helper()
	body, _ := json.Marshal(feder.DescribeRequest{Session: session})
	resp, err := http.Post(url+"/fed/describe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("describe: status %d", resp.StatusCode)
	}
	var dr feder.DescribeResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	return dr.Text
}

// TestFederatedMatchesSingleProcess is the loopback parity check: the
// coordinator over two HTTP peers must replay the single-process
// negotiation exactly — same outcome, same rounds, same final configs on
// replicas and peers — and leave a verifiable transcript.
func TestFederatedMatchesSingleProcess(t *testing.T) {
	for _, tc := range []struct {
		name   string
		strict bool
	}{
		{"relaxed", false},
		{"strict", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, baseK8s, baseIstio := singleProcess(t, tc.strict)

			k8sSrv := startPeer(t, fedState(t, tc.strict), "k8s", feder.PeerHooks{}, nil)
			istioSrv := startPeer(t, fedState(t, tc.strict), "istio", feder.PeerHooks{}, nil)

			key := []byte("parity-key")
			var transcript bytes.Buffer
			opts := fastOpts()
			opts.Transcript = feder.NewTranscriptWriter(&transcript, key)
			seen := observe(&opts)
			co, replicas := newCoordinator(t, fedState(t, tc.strict), k8sSrv.URL, istioSrv.URL, opts)

			fed := co.Run(hangGuard(t))
			requireParity(t, fed, base)
			if got := replicas[0].P.Describe(); got != baseK8s {
				t.Fatalf("K8s replica diverged:\n--- federated ---\n%s\n--- single-process ---\n%s", got, baseK8s)
			}
			if got := replicas[1].P.Describe(); got != baseIstio {
				t.Fatalf("Istio replica diverged:\n--- federated ---\n%s\n--- single-process ---\n%s", got, baseIstio)
			}
			// The peers' own parties must hold the same configurations the
			// replicas do — no torn state across trust domains.
			if got := peerDescribe(t, k8sSrv.URL, co.Session()); got != baseK8s {
				t.Fatalf("K8s peer holds a different configuration:\n%s", got)
			}
			if got := peerDescribe(t, istioSrv.URL, co.Session()); got != baseIstio {
				t.Fatalf("Istio peer holds a different configuration:\n%s", got)
			}
			n, err := feder.VerifyTranscript(bytes.NewReader(transcript.Bytes()), key)
			if err != nil {
				t.Fatalf("transcript: %v", err)
			}
			if n == 0 {
				t.Fatal("empty transcript")
			}
			for _, peer := range []string{"K8s", "Istio"} {
				if st, ok := seen.breaker(peer); !ok || st != feder.BreakerClosed {
					t.Fatalf("healthy run left the %s breaker %v (published %v)", peer, st, ok)
				}
			}
		})
	}
}

// TestFederatedRevisionsMatchSingleProcess starts Fig. 9 from the pushed
// port-23 ban with soft offers against the strict Istio goals, where the
// parties revise with real edits. The coordinator must replay the
// single-process rounds and final configurations, so every remote
// counter-offer must reach the replica that the next envelope and
// reconcile are computed from.
func TestFederatedRevisionsMatchSingleProcess(t *testing.T) {
	pushed := func() *server.State {
		cfg := fedConfig(true)
		cfg.K8sOffer = "soft"
		st, err := server.Load(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Bundle.K8s.Policy("cluster-default").IngressDenyPorts = []int{23}
		return st
	}
	st := pushed()
	k8s, istio, err := st.FreshParties()
	if err != nil {
		t.Fatal(err)
	}
	base := muppet.NewNegotiation(st.Sys, k8s, istio).RunCtx(context.Background(), muppet.Budget{})
	edits := 0
	for _, r := range base.Rounds {
		edits += len(r.Edits)
	}
	if edits == 0 {
		t.Fatal("no round revised with edits; the test exercised nothing")
	}

	k8sSrv := startPeer(t, pushed(), "k8s", feder.PeerHooks{}, nil)
	istioSrv := startPeer(t, pushed(), "istio", feder.PeerHooks{}, nil)
	co, replicas := newCoordinator(t, pushed(), k8sSrv.URL, istioSrv.URL, fastOpts())
	fed := co.Run(hangGuard(t))
	requireParity(t, fed, base)
	if got, want := replicas[0].P.Describe(), k8s.Describe(); got != want {
		t.Fatalf("K8s replica diverged:\n--- federated ---\n%s\n--- single-process ---\n%s", got, want)
	}
	if got, want := replicas[1].P.Describe(), istio.Describe(); got != want {
		t.Fatalf("Istio replica diverged:\n--- federated ---\n%s\n--- single-process ---\n%s", got, want)
	}
}

// TestFederatedChaos injects every fault class (and a mix) into both
// peers and requires convergence-or-typed-degradation: either the outcome
// matches the no-fault baseline exactly, or it is a typed peer-
// unreachable report with the failing peer named — never a hang, a torn
// replica, or an untyped error. The transcript must verify either way.
func TestFederatedChaos(t *testing.T) {
	base, baseK8s, baseIstio := singleProcess(t, true)

	// Seeds 24 and 21 are chosen so every class below fires at p=0.4
	// within each peer's first 8 requests — the chaos is deterministic
	// AND guaranteed to actually bite (asserted via retry counters).
	for _, tc := range []struct {
		name string
		spec string
		// expectRetries: the class surfaces as a retryable failure, so a
		// surviving run must show at least one retry.
		expectRetries bool
	}{
		{"latency", "latency=2ms:0.4", false},
		{"error", "error=0.4", true},
		{"unavail", "unavail=0.4:0", true},
		{"drop", "drop=0.4", true},
		{"slow", "slow=0.4", false},
		{"mix", "latency=1ms:0.4,error=0.4,unavail=0.4:0,drop=0.4,slow=0.4", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := faultinject.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			wrap := func(seed int64) func(http.Handler) http.Handler {
				return func(h http.Handler) http.Handler { return spec.Middleware(seed, h) }
			}
			k8sSrv := startPeer(t, fedState(t, true), "k8s", feder.PeerHooks{}, wrap(24))
			istioSrv := startPeer(t, fedState(t, true), "istio", feder.PeerHooks{}, wrap(21))

			key := []byte("chaos-key")
			var transcript bytes.Buffer
			opts := fastOpts()
			opts.Transcript = feder.NewTranscriptWriter(&transcript, key)
			seen := observe(&opts)
			co, replicas := newCoordinator(t, fedState(t, true), k8sSrv.URL, istioSrv.URL, opts)

			fed := co.Run(hangGuard(t))
			switch fed.Reason {
			case muppet.ReasonUnreachable:
				// Typed degradation: the failing peer is named, the error
				// typed, and the best-so-far state intact.
				if fed.FailedParty == "" || fed.Err == nil {
					t.Fatalf("unreachable outcome without peer attribution: %+v", fed)
				}
				if len(fed.Rounds) > len(base.Rounds) {
					t.Fatalf("degraded run invented rounds: %d > %d", len(fed.Rounds), len(base.Rounds))
				}
				if replicas[0].P.Describe() == "" || replicas[1].P.Describe() == "" {
					t.Fatal("torn replica state after degradation")
				}
			default:
				// The run survived the faults: it must match the baseline
				// exactly — retries may cost wall-clock, never correctness.
				requireParity(t, fed, base)
				if got := replicas[0].P.Describe(); got != baseK8s {
					t.Fatalf("K8s replica diverged under faults:\n%s", got)
				}
				if got := replicas[1].P.Describe(); got != baseIstio {
					t.Fatalf("Istio replica diverged under faults:\n%s", got)
				}
				if tc.expectRetries && seen.retried("K8s")+seen.retried("Istio") == 0 {
					t.Fatal("fault class never fired: the chaos exercised nothing")
				}
			}
			if _, err := feder.VerifyTranscript(bytes.NewReader(transcript.Bytes()), key); err != nil {
				t.Fatalf("transcript after %s faults: %v", tc.name, err)
			}
			t.Logf("%s: reason=%s rounds=%d retries K8s=%d Istio=%d",
				tc.name, fed.Reason, len(fed.Rounds), seen.retried("K8s"), seen.retried("Istio"))
		})
	}
}

// swapHandler lets a test replace a live server's handler, simulating a
// peer process dying and a fresh one binding the same address.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestFederatedPeerRestart kills the K8s peer after it serves its first
// envelope round — replacing it with a fresh daemon holding the original
// (pre-negotiation) bundle and no session state — and requires the
// coordinator to heal (rejoin, resynchronize the replica's configuration)
// and finish with the exact baseline outcome.
func TestFederatedPeerRestart(t *testing.T) {
	base, baseK8s, baseIstio := singleProcess(t, true)
	if len(base.Rounds) < 3 {
		t.Fatalf("restart test needs a multi-round baseline, got %d rounds", len(base.Rounds))
	}

	newK8sPeer := func(hooks feder.PeerHooks) http.Handler {
		st := fedState(t, true)
		return feder.NewPeer(st.Sys, func() (*feder.LocalParty, error) { return st.FedParty("k8s") }, hooks).Handler()
	}

	sw := &swapHandler{}
	var restartOnce sync.Once
	restarted := false
	// The first peer incarnation kills itself after serving one envelope
	// round; the replacement is a cold daemon: fresh party, no sessions.
	sw.swap(newK8sPeer(feder.PeerHooks{OnRound: func() {
		restartOnce.Do(func() {
			restarted = true
			sw.swap(newK8sPeer(feder.PeerHooks{}))
		})
	}}))
	k8sSrv := httptest.NewServer(sw)
	defer k8sSrv.Close()
	istioSrv := startPeer(t, fedState(t, true), "istio", feder.PeerHooks{}, nil)

	key := []byte("restart-key")
	var transcript bytes.Buffer
	opts := fastOpts()
	opts.Transcript = feder.NewTranscriptWriter(&transcript, key)
	co, replicas := newCoordinator(t, fedState(t, true), k8sSrv.URL, istioSrv.URL, opts)

	fed := co.Run(hangGuard(t))
	if !restarted {
		t.Fatal("the K8s peer never restarted; the test exercised nothing")
	}
	requireParity(t, fed, base)
	if got := replicas[0].P.Describe(); got != baseK8s {
		t.Fatalf("K8s replica diverged across the restart:\n%s", got)
	}
	if got := replicas[1].P.Describe(); got != baseIstio {
		t.Fatalf("Istio replica diverged across the restart:\n%s", got)
	}
	// The restarted peer was resynchronized from the replica: its party
	// must hold the replica's (revised) configuration, not its cold one.
	if got := peerDescribe(t, k8sSrv.URL, co.Session()); got != baseK8s {
		t.Fatalf("restarted peer was not resynchronized:\n%s", got)
	}
	if _, err := feder.VerifyTranscript(bytes.NewReader(transcript.Bytes()), key); err != nil {
		t.Fatalf("transcript across restart: %v", err)
	}
}

// TestFederatedDeadPeerOpensBreaker points the coordinator at a peer that
// only ever returns 500: the run must degrade to a typed peer-unreachable
// outcome after exactly retries+1 attempts, with the breaker open and the
// healthy peer's replica untouched.
func TestFederatedDeadPeerOpensBreaker(t *testing.T) {
	var calls int
	var mu sync.Mutex
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"dead","code":"internal"}`))
	}))
	defer dead.Close()
	k8sSrv := startPeer(t, fedState(t, true), "k8s", feder.PeerHooks{}, nil)

	opts := fastOpts()
	opts.Retries = 2
	opts.BreakerThreshold = 3
	opts.BreakerCooldown = time.Hour // keep the breaker visibly open
	seen := observe(&opts)
	co, _ := newCoordinator(t, fedState(t, true), k8sSrv.URL, dead.URL, opts)

	fed := co.Run(hangGuard(t))
	if fed.Reason != muppet.ReasonUnreachable {
		t.Fatalf("reason %v, want peer-unreachable", fed.Reason)
	}
	if fed.FailedParty != "Istio" {
		t.Fatalf("failed peer %q, want Istio", fed.FailedParty)
	}
	var pe *feder.PeerError
	if !errors.As(fed.Err, &pe) || pe.Status != http.StatusInternalServerError {
		t.Fatalf("peer error %v, want a typed 500 PeerError", fed.Err)
	}
	if st, ok := seen.breaker("Istio"); !ok || st != feder.BreakerOpen {
		t.Fatalf("Istio breaker %v (published %v), want open", st, ok)
	}
	if st, ok := seen.breaker("K8s"); !ok || st != feder.BreakerClosed {
		t.Fatalf("K8s breaker %v (published %v), want closed", st, ok)
	}
	if n := seen.retried("Istio"); n != 2 {
		t.Fatalf("Istio retries %d, want 2", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Fatalf("dead peer saw %d calls, want retries+1 = 3", calls)
	}
}

// TestFederatedDeliveryFailure reaches the relaxed agreement on the
// initial reconcile, then cannot deliver it: the Istio peer's /fed/install
// always answers 500. The run must report the undelivered agreement as
// unreachable, never as reconciled, with the replicas holding it, and
// the daemon renderer must report it degraded.
func TestFederatedDeliveryFailure(t *testing.T) {
	_, baseK8s, baseIstio := singleProcess(t, false)
	failInstall := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fed/install" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				w.Write([]byte(`{"error":"disk full","code":"internal"}`))
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	k8sSrv := startPeer(t, fedState(t, false), "k8s", feder.PeerHooks{}, nil)
	istioSrv := startPeer(t, fedState(t, false), "istio", feder.PeerHooks{}, failInstall)

	co, replicas := newCoordinator(t, fedState(t, false), k8sSrv.URL, istioSrv.URL, fastOpts())
	fed := co.Run(hangGuard(t))
	if fed.Reason != muppet.ReasonUnreachable || fed.Reconciled {
		t.Fatalf("reason %v reconciled=%v, want peer-unreachable and not reconciled", fed.Reason, fed.Reconciled)
	}
	if fed.FailedParty != "Istio" {
		t.Fatalf("failed party %q, want Istio", fed.FailedParty)
	}
	var pe *feder.PeerError
	if !errors.As(fed.Err, &pe) || pe.Status != http.StatusInternalServerError {
		t.Fatalf("peer error %v, want a typed 500 PeerError", fed.Err)
	}
	if got := replicas[0].P.Describe(); got != baseK8s {
		t.Fatalf("K8s replica does not hold the agreement:\n%s", got)
	}
	if got := replicas[1].P.Describe(); got != baseIstio {
		t.Fatalf("Istio replica does not hold the agreement:\n%s", got)
	}

	ctx, b := hangGuard(t)
	opts := fastOpts()
	resp, err := server.ExecFed(ctx, fedState(t, false), nil,
		server.Request{Op: "negotiate", Peers: "k8s=" + k8sSrv.URL + ",istio=" + istioSrv.URL}, b, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != server.CodeIndeterminate || !strings.Contains(resp.Output, "NEGOTIATION DEGRADED") {
		t.Fatalf("code %d, want %d with a degraded report:\n%s", resp.Code, server.CodeIndeterminate, resp.Output)
	}
}

// TestFederatedIdempotentReplay posts the same envelope request twice
// with one idempotency key: the second response must be served from the
// replay log (marked X-Fed-Replay) byte-identical to the first, without
// re-running the solver or re-applying the revision.
func TestFederatedIdempotentReplay(t *testing.T) {
	st := fedState(t, true)
	var rounds, replays int
	srv := startPeer(t, st, "k8s", feder.PeerHooks{
		OnRound:  func() { rounds++ },
		OnReplay: func() { replays++ },
	}, nil)

	post := func(op string, body any) (*http.Response, []byte) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+"/fed/"+op, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post("join", feder.JoinRequest{
		Session:     "replay-test",
		Coordinator: "test",
		Fingerprint: feder.SystemFingerprint(st.Sys),
		Rounds:      4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %s", resp.StatusCode, body)
	}

	// The round-1 envelope the coordinator would send: Istio's obligations
	// merged for the K8s party.
	k8s, istio, err := st.FreshParties()
	if err != nil {
		t.Fatal(err)
	}
	env, err := muppet.ComputeEnvelopeCtx(context.Background(), st.Sys, k8s, []*muppet.Party{istio})
	if err != nil {
		t.Fatal(err)
	}
	wenv, err := feder.NewVocab(st.Sys).EncodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	istioLP, err := st.FedParty("istio")
	if err != nil {
		t.Fatal(err)
	}
	req := feder.EnvelopeRequest{
		Session: "replay-test",
		Round:   1,
		Idem:    "replay-test/env/1",
		Env:     wenv,
		Others:  []feder.WireOffer{istioLP.Snapshot()},
	}

	first, firstBody := post("envelope", req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("envelope: %d %s", first.StatusCode, firstBody)
	}
	if first.Header.Get("X-Fed-Replay") != "" {
		t.Fatal("first delivery marked as a replay")
	}
	second, secondBody := post("envelope", req)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("replayed envelope: %d %s", second.StatusCode, secondBody)
	}
	if second.Header.Get("X-Fed-Replay") != "1" {
		t.Fatal("second delivery not marked X-Fed-Replay")
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("replay is not byte-identical:\n1st %s\n2nd %s", firstBody, secondBody)
	}
	if rounds != 1 {
		t.Fatalf("solver ran %d rounds for one idempotency key, want 1", rounds)
	}
	if replays != 1 {
		t.Fatalf("replay hook fired %d times, want 1", replays)
	}

	var co feder.CounterOffer
	if err := json.Unmarshal(firstBody, &co); err != nil {
		t.Fatal(err)
	}
	if co.Result == "" || !strings.Contains(feder.ResultConformed+feder.ResultRevised+feder.ResultStuck, co.Result) {
		t.Fatalf("unexpected counter-offer result %q", co.Result)
	}
}
