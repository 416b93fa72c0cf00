package main

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"muppet"
	"muppet/internal/server"
)

const fig1Files = "../../testdata/fig1/mesh.yaml,../../testdata/fig1/k8s_current.yaml,../../testdata/fig1/istio_current.yaml"

func TestInputsLoad(t *testing.T) {
	in := inputs{cfg: server.Config{
		Files:      fig1Files,
		K8sGoals:   "../../testdata/fig1/k8s_goals.csv",
		IstioGoals: "../../testdata/fig1/istio_goals_revised.csv",
		K8sOffer:   "fixed",
		IstioOffer: "soft",
	}}
	st, err := in.load()
	if err != nil {
		t.Fatal(err)
	}
	k8sParty, istioParty, err := st.FreshParties()
	if err != nil || k8sParty == nil || istioParty == nil {
		t.Fatalf("parties not built: %v", err)
	}
}

func TestInputsLoadErrors(t *testing.T) {
	if _, err := (&inputs{}).load(); err == nil {
		t.Fatal("missing -files must error")
	}
	in := inputs{cfg: server.Config{Files: "does-not-exist.yaml"}}
	if _, err := in.load(); err == nil {
		t.Fatal("missing file must error")
	}
	in = inputs{cfg: server.Config{Files: fig1Files, K8sOffer: "bogus"}}
	if _, err := in.load(); err == nil {
		t.Fatal("bad offer must error")
	}
}

func TestRunEnvelopeSucceeds(t *testing.T) {
	err := runEnvelope(context.Background(), []string{
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-from", "k8s", "-to", "istio",
		"-english", "-leakage",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckSucceeds(t *testing.T) {
	err := runCheck(context.Background(), []string{
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-party", "k8s",
		"-istio-offer", "holes",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReconcileSucceeds(t *testing.T) {
	err := runReconcile(context.Background(), []string{
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-istio-goals", "../../testdata/fig1/istio_goals_revised.csv",
		"-k8s-offer", "soft", "-istio-offer", "soft",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReconcileStrategyFlag(t *testing.T) {
	defer applyStrategy("auto")
	for _, strategy := range []string{"linear", "binary"} {
		err := runReconcile(context.Background(), []string{
			"-files", fig1Files,
			"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
			"-istio-goals", "../../testdata/fig1/istio_goals_revised.csv",
			"-k8s-offer", "soft", "-istio-offer", "soft",
			"-strategy", strategy,
		})
		if err != nil {
			t.Fatalf("-strategy %s: %v", strategy, err)
		}
	}
	if err := applyStrategy("bogus"); err == nil {
		t.Fatal("bad -strategy must error")
	}
}

func TestRunConformSucceeds(t *testing.T) {
	err := runConform(context.Background(), []string{
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-istio-goals", "../../testdata/fig1/istio_goals_revised.csv",
		"-k8s-offer", "fixed", "-istio-offer", "soft",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunNegotiateSucceeds(t *testing.T) {
	err := runNegotiate(context.Background(), []string{
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-istio-goals", "../../testdata/fig1/istio_goals_revised.csv",
		"-k8s-offer", "soft", "-istio-offer", "soft",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunEvalSucceeds(t *testing.T) {
	err := runEval(context.Background(), []string{
		"-files", fig1Files,
		"-src", "test-backend", "-dst", "test-frontend", "-port", "23",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runEval(context.Background(), []string{"-files", fig1Files}); err == nil {
		t.Fatal("missing flow flags must error")
	}
}

func TestExtraPortsFlowIntoSystem(t *testing.T) {
	in := inputs{cfg: server.Config{
		Files: fig1Files,
		Ports: "9999",
	}}
	st, err := in.load()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sys.HasPort(9999) {
		t.Fatal("-ports must extend the inventory")
	}
	_ = muppet.Flow{}
}

func TestVersionCommand(t *testing.T) {
	if code := runCtx(context.Background(), []string{"version"}); code != exitSat {
		t.Fatalf("version: exit %d", code)
	}
}

// captureRun runs runCtx with os.Stdout captured, returning what the
// command printed and its exit code.
func captureRun(t *testing.T, argv []string) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		outc <- string(b)
	}()
	code := runCtx(context.Background(), argv)
	w.Close()
	os.Stdout = old
	return <-outc, code
}

// TestClientModeMatchesLocal is the parity acceptance test: every
// workflow command routed through a running daemon (-addr) must print
// byte-identical output and exit with the same code as the local solve.
func TestClientModeMatchesLocal(t *testing.T) {
	st, err := server.Load(server.Config{
		Files:      fig1Files,
		K8sGoals:   "../../testdata/fig1/k8s_goals.csv",
		IstioGoals: "../../testdata/fig1/istio_goals_revised.csv",
		K8sOffer:   "soft",
		IstioOffer: "soft",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(st, server.Options{Concurrency: 2, QueueDepth: 8})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")

	base := []string{
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-istio-goals", "../../testdata/fig1/istio_goals_revised.csv",
		"-k8s-offer", "soft", "-istio-offer", "soft",
	}
	cases := [][]string{
		{"check", "-party", "k8s"},
		{"check", "-party", "istio"},
		{"envelope", "-english", "-leakage"},
		{"reconcile"},
		{"conform"},
		{"negotiate"},
	}
	for _, c := range cases {
		argv := append(append([]string{c[0]}, base...), c[1:]...)
		localOut, localCode := captureRun(t, argv)
		clientOut, clientCode := captureRun(t, append(argv, "-addr", addr))
		if clientCode != localCode {
			t.Errorf("%v: client exit %d, local exit %d", c, clientCode, localCode)
		}
		if clientOut != localOut {
			t.Errorf("%v: client output differs from local\n--- local ---\n%s\n--- client ---\n%s", c, localOut, clientOut)
		}
	}
}

func TestClientModeRejectsDaemonSideFlags(t *testing.T) {
	for _, argv := range [][]string{
		{"reconcile", "-files", fig1Files, "-addr", "127.0.0.1:1", "-strategy", "linear"},
		{"reconcile", "-files", fig1Files, "-addr", "127.0.0.1:1", "-v"},
	} {
		if code := runCtx(context.Background(), argv); code != exitInternal {
			t.Errorf("%v: exit %d, want %d", argv, code, exitInternal)
		}
	}
}

// TestClientTenantFlag pins the -tenant routing: naming the daemon's
// default tenant explicitly hits /t/default/{op} and must match the /v1
// output byte for byte; an unknown tenant is a daemon-side 404; and
// -tenant without -addr is rejected, since local solves take their
// bundle from -files.
func TestClientTenantFlag(t *testing.T) {
	st, err := server.Load(server.Config{
		Files:      fig1Files,
		K8sGoals:   "../../testdata/fig1/k8s_goals.csv",
		IstioGoals: "../../testdata/fig1/istio_goals_revised.csv",
		K8sOffer:   "soft",
		IstioOffer: "soft",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(st, server.Options{Concurrency: 2, QueueDepth: 8})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")

	argv := []string{"check", "-party", "k8s", "-files", fig1Files, "-addr", addr}
	defOut, defCode := captureRun(t, argv)
	tenOut, tenCode := captureRun(t, append(argv, "-tenant", server.DefaultTenant))
	if tenCode != defCode || tenOut != defOut {
		t.Errorf("-tenant default: exit %d output %q, want exit %d output %q", tenCode, tenOut, defCode, defOut)
	}
	if code := runCtx(context.Background(), append(argv, "-tenant", "no-such-tenant")); code != exitInternal {
		t.Errorf("unknown tenant: exit %d, want %d", code, exitInternal)
	}
	if code := runCtx(context.Background(), []string{"check", "-files", fig1Files, "-tenant", "acme"}); code != exitInternal {
		t.Errorf("-tenant without -addr: exit %d, want %d", code, exitInternal)
	}
}

func TestRunCtxUsageExitCodes(t *testing.T) {
	if code := runCtx(context.Background(), nil); code != exitUsage {
		t.Fatalf("no command: exit %d, want %d", code, exitUsage)
	}
	if code := runCtx(context.Background(), []string{"bogus"}); code != exitUsage {
		t.Fatalf("unknown command: exit %d, want %d", code, exitUsage)
	}
	if code := runCtx(context.Background(), []string{"help"}); code != exitSat {
		t.Fatalf("help: exit %d, want %d", code, exitSat)
	}
	// Bad flag values are usage errors, as -timeout bogus is (the flag
	// package exits 2 on its own).
	for _, argv := range [][]string{
		{"reconcile", "-strategy", "bogus"},
		{"reconcile", "-encoding", "bogus"},
		{"reconcile", "-encoding", "no-sweep"},
		{"bench"},
	} {
		if code := runCtx(context.Background(), argv); code != exitUsage {
			t.Errorf("%v: exit %d, want %d", argv, code, exitUsage)
		}
	}
}

// TestRunCtxCancelledIsIndeterminate pins the SIGINT wiring: run()
// translates the signal into context cancellation, and a cancelled
// context must surface as the indeterminate exit code, never as a
// fabricated UNSAT verdict.
func TestRunCtxCancelledIsIndeterminate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // as if SIGINT had already arrived
	code := runCtx(ctx, []string{"reconcile",
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-istio-goals", "../../testdata/fig1/istio_goals_revised.csv",
		"-k8s-offer", "soft", "-istio-offer", "soft",
	})
	if code != exitIndeterminate {
		t.Fatalf("cancelled reconcile: exit %d, want %d", code, exitIndeterminate)
	}
}

// TestRunCtxTimeoutIsIndeterminate is the acceptance criterion of the
// budget work: reconcile under an unmeetable -timeout exits
// indeterminate with a stop reason, while the same invocation without
// a timeout reconciles (TestRunReconcileSucceeds above).
func TestRunCtxTimeoutIsIndeterminate(t *testing.T) {
	code := runCtx(context.Background(), []string{"reconcile",
		"-timeout", "1ns",
		"-files", fig1Files,
		"-k8s-goals", "../../testdata/fig1/k8s_goals.csv",
		"-istio-goals", "../../testdata/fig1/istio_goals_revised.csv",
		"-k8s-offer", "soft", "-istio-offer", "soft",
	})
	if code != exitIndeterminate {
		t.Fatalf("1ns reconcile: exit %d, want %d", code, exitIndeterminate)
	}
}

func TestRunCtxRecoversPanics(t *testing.T) {
	orig := dispatchFn
	defer func() { dispatchFn = orig }()
	dispatchFn = func(context.Context, string, []string) error {
		panic("relational evaluator arity mismatch")
	}
	if code := runCtx(context.Background(), []string{"check"}); code != exitInternal {
		t.Fatalf("panicking command: exit %d, want %d", code, exitInternal)
	}
}

func TestStatusErrRoundTrip(t *testing.T) {
	var se statusErr
	if !errors.As(error(statusErr(exitUnsat)), &se) || int(se) != exitUnsat {
		t.Fatalf("statusErr did not round-trip: %v", se)
	}
	if statusErr(3).Error() != "exit status 3" {
		t.Fatalf("unexpected message %q", statusErr(3).Error())
	}
}
