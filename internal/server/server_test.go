package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"muppet"
)

const fig1Dir = "../../testdata/fig1/"

func fig1Config() Config {
	return Config{
		Files:      fig1Dir + "mesh.yaml," + fig1Dir + "k8s_current.yaml," + fig1Dir + "istio_current.yaml",
		K8sGoals:   fig1Dir + "k8s_goals.csv",
		IstioGoals: fig1Dir + "istio_goals_revised.csv",
		K8sOffer:   "soft",
		IstioOffer: "soft",
	}
}

var (
	fig1Once sync.Once
	fig1St   *State
	fig1Err  error
)

func fig1State(t *testing.T) *State {
	t.Helper()
	fig1Once.Do(func() { fig1St, fig1Err = Load(fig1Config()) })
	if fig1Err != nil {
		t.Fatal(fig1Err)
	}
	return fig1St
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(Config{}); err == nil {
		t.Fatal("missing files must error")
	}
	if _, err := Load(Config{Files: "does-not-exist.yaml"}); err == nil {
		t.Fatal("missing file must error")
	}
	cfg := fig1Config()
	cfg.K8sOffer = "bogus"
	if _, err := Load(cfg); err == nil {
		t.Fatal("bad offer must error")
	}
	cfg = fig1Config()
	cfg.Ports = "x"
	if _, err := Load(cfg); err == nil {
		t.Fatal("bad port must error")
	}
}

func TestParseOffer(t *testing.T) {
	for _, c := range []struct {
		in   string
		soft int
		hole int
	}{
		{"fixed", 0, 0},
		{"", 0, 0},
		{"soft", 1, 0},
		{"holes", 0, 1},
	} {
		o, err := ParseOffer(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if len(o.Soft) != c.soft || len(o.Holes) != c.hole {
			t.Fatalf("%q: got %+v", c.in, o)
		}
	}
	if _, err := ParseOffer("bogus"); err == nil {
		t.Fatal("bogus offer mode must error")
	}
}

func TestParsePorts(t *testing.T) {
	ports, err := ParsePorts("23, 80,443")
	if err != nil || len(ports) != 3 || ports[0] != 23 || ports[2] != 443 {
		t.Fatalf("ports=%v err=%v", ports, err)
	}
	if _, err := ParsePorts("x"); err == nil {
		t.Fatal("bad port must error")
	}
	for _, bad := range []string{"0", "-7", "70000", "8080,70000"} {
		if ports, err := ParsePorts(bad); err == nil || !strings.Contains(err.Error(), "bad port") {
			t.Errorf("ParsePorts(%q) = %v, %v; want a bad port error", bad, ports, err)
		}
	}
	if ports, err := ParsePorts("1,65535"); err != nil || len(ports) != 2 || ports[0] != 1 || ports[1] != 65535 {
		t.Fatalf("ParsePorts(\"1,65535\") = %v, %v", ports, err)
	}
}

func TestExecUsageErrors(t *testing.T) {
	st := fig1State(t)
	cache := muppet.NewSolveCache()
	if _, err := Exec(context.Background(), st, cache, Request{Op: "bogus"}, muppet.Budget{}); err == nil {
		t.Fatal("unknown op must error")
	}
	if _, err := Exec(context.Background(), st, cache, Request{Op: "check", Party: "router"}, muppet.Budget{}); err == nil {
		t.Fatal("unknown party must error")
	}
}

// execDirect computes the reference response the daemon must reproduce:
// one op run on a fresh cold cache, exactly as the one-shot CLI would.
func execDirect(t *testing.T, st *State, req Request) Response {
	t.Helper()
	resp, err := Exec(context.Background(), st, muppet.NewSolveCache(), req, muppet.Budget{})
	if err != nil {
		t.Fatalf("direct %s: %v", req.Op, err)
	}
	return resp
}

func postOp(t *testing.T, client *http.Client, base string, req Request, hdr map[string]string) (*http.Response, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/"+req.Op, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	res, err := client.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out Response
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatalf("%s: bad response body: %v", req.Op, err)
		}
	} else {
		io.Copy(io.Discard, res.Body)
	}
	return res, out
}

// TestEndpointsMatchDirectExec asserts every workflow endpoint returns
// exactly the response a direct (CLI-equivalent) execution produces —
// same verdict code, byte-identical output.
func TestEndpointsMatchDirectExec(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 2, QueueDepth: 8})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	reqs := []Request{
		{Op: "check", Party: "k8s"},
		{Op: "check", Party: "istio"},
		{Op: "envelope", From: "k8s", To: "istio", English: true, Leakage: true},
		{Op: "reconcile"},
		{Op: "conform", Provider: "k8s"},
		{Op: "negotiate"},
	}
	for _, req := range reqs {
		want := execDirect(t, st, req)
		res, got := postOp(t, hs.Client(), hs.URL, req, nil)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", req.Op, res.StatusCode)
		}
		if got.Code != want.Code || got.Output != want.Output {
			t.Fatalf("%s: daemon response differs from direct exec\n--- daemon (code %d) ---\n%s\n--- direct (code %d) ---\n%s",
				req.Op, got.Code, got.Output, want.Code, want.Output)
		}
	}
}

// TestConcurrentLoadMatchesSequential is the tentpole acceptance test:
// ≥8 parallel clients issuing mixed check/reconcile/negotiate requests
// against one daemon must each receive exactly the sequential reference
// response, the queue must stay within its bound, and /metrics must show
// the warm sessions actually being reused.
func TestConcurrentLoadMatchesSequential(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 4, QueueDepth: 32})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	ops := []Request{
		{Op: "check", Party: "k8s"},
		{Op: "reconcile"},
		{Op: "negotiate"},
	}
	want := make(map[string]Response, len(ops))
	for _, req := range ops {
		want[req.Op] = execDirect(t, st, req)
	}

	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := ops[(c+i)%len(ops)]
				res, got := postOp(t, hs.Client(), hs.URL, req, nil)
				if res.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d %s: HTTP %d", c, req.Op, res.StatusCode)
					return
				}
				w := want[req.Op]
				if got.Code != w.Code || got.Output != w.Output {
					errs <- fmt.Errorf("client %d %s: response differs from sequential reference", c, req.Op)
					return
				}
				if d := s.pool.depth(); d > s.pool.capacity() {
					errs <- fmt.Errorf("queue depth %d exceeds capacity %d", d, s.pool.capacity())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	res, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	text := string(body)
	for _, want := range []string{
		"muppetd_requests_total{op=\"check\",code=\"0\"}",
		"muppetd_request_duration_seconds_count{op=\"reconcile\"}",
		"muppetd_queue_capacity 32",
		"muppetd_workers 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	reuse := s.scrape().reuse
	if reuse.Reuses == 0 {
		t.Error("expected non-zero session reuse under concurrent load")
	}
	if !strings.Contains(text, "muppetd_session_reuses_total") {
		t.Error("/metrics missing session reuse counter")
	}
}

// TestOverloadRejected fills the worker and the queue with blocked jobs
// and asserts the next request is refused with 429 + Retry-After rather
// than queued unboundedly.
func TestOverloadRejected(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 1, QueueDepth: 1})
	defer s.Close()
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	s.execFn = func(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget) (Response, error) {
		started <- struct{}{}
		select {
		case <-unblock:
		case <-ctx.Done():
		}
		return Response{Op: req.Op, Output: "done\n"}, nil
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "check"}, nil)
			codes <- res.StatusCode
		}()
		if i == 0 {
			<-started // worker is now busy; the next request parks in the queue
		}
	}
	// Wait until the second job is actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.depth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "check"}, nil)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: HTTP %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}

	close(unblock)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request: HTTP %d, want 200", code)
		}
	}

	mres, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	body, _ := io.ReadAll(mres.Body)
	if !strings.Contains(string(body), "muppetd_rejections_total 1") {
		t.Errorf("metrics must count the rejection:\n%s", body)
	}
}

// TestDrainRefusesNewWork asserts the drain lifecycle: /readyz flips to
// 503 and workflow endpoints refuse, while /healthz stays up and an
// in-flight request still completes untorn.
func TestDrainRefusesNewWork(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 1, QueueDepth: 1})
	inFlight := make(chan struct{})
	release := make(chan struct{})
	s.execFn = func(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget) (Response, error) {
		close(inFlight)
		<-release
		return Response{Op: req.Op, Output: "finished\n"}, nil
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	type reply struct {
		status int
		resp   Response
	}
	got := make(chan reply, 1)
	go func() {
		res, r := postOp(t, hs.Client(), hs.URL, Request{Op: "reconcile"}, nil)
		got <- reply{res.StatusCode, r}
	}()
	<-inFlight
	s.Drain()

	if res, err := hs.Client().Get(hs.URL + "/readyz"); err != nil || res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %v %v", res.StatusCode, err)
	} else {
		res.Body.Close()
	}
	if res, err := hs.Client().Get(hs.URL + "/healthz"); err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %v %v", res.StatusCode, err)
	} else {
		res.Body.Close()
	}
	if res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "check"}, nil); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new work while draining: HTTP %d, want 503", res.StatusCode)
	}

	close(release)
	r := <-got
	if r.status != http.StatusOK || r.resp.Output != "finished\n" {
		t.Fatalf("in-flight request during drain: HTTP %d, output %q", r.status, r.resp.Output)
	}
	s.Close()
}

// TestCancelSolvesInterruptsInFlight asserts the drain hammer: after
// CancelSolves, a blocked in-flight solve observes cancellation and the
// client still receives a complete, structured response.
func TestCancelSolvesInterruptsInFlight(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 1, QueueDepth: 1})
	defer s.Close()
	inFlight := make(chan struct{})
	s.execFn = func(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget) (Response, error) {
		close(inFlight)
		<-ctx.Done()
		return Response{Op: req.Op, Code: CodeIndeterminate, Output: "INDETERMINATE (cancelled)\n", Stop: "cancelled"}, nil
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	got := make(chan Response, 1)
	go func() {
		_, r := postOp(t, hs.Client(), hs.URL, Request{Op: "negotiate"}, nil)
		got <- r
	}()
	<-inFlight
	s.Drain()
	s.CancelSolves()
	r := <-got
	if r.Code != CodeIndeterminate || r.Stop == "" {
		t.Fatalf("cancelled solve: code %d stop %q, want structured indeterminate", r.Code, r.Stop)
	}
}

// TestBudgetHeaders exercises the per-request budget plumbing: an
// unmeetable timeout yields a structured indeterminate verdict (the
// HTTP mirror of CLI exit code 3), and malformed headers are 400s.
func TestBudgetHeaders(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 1, QueueDepth: 2})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	res, got := postOp(t, hs.Client(), hs.URL, Request{Op: "reconcile"},
		map[string]string{HeaderTimeout: "1ns"})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("1ns reconcile: HTTP %d", res.StatusCode)
	}
	if got.Code != CodeIndeterminate || got.Stop == "" {
		t.Fatalf("1ns reconcile: code %d stop %q, want indeterminate with stop reason", got.Code, got.Stop)
	}
	if !strings.HasPrefix(got.Output, "INDETERMINATE") {
		t.Fatalf("1ns reconcile output %q", got.Output)
	}

	if res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "check"},
		map[string]string{HeaderTimeout: "soon"}); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout header: HTTP %d, want 400", res.StatusCode)
	}
	if res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "check"},
		map[string]string{HeaderMaxConflicts: "-3"}); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad conflicts header: HTTP %d, want 400", res.StatusCode)
	}
}

// TestExecEnvelopeStopReason: an envelope request whose context is done
// before the rewrite starts names the context's stop, as the solving ops
// do: an expired deadline is "deadline exceeded", a cancellation
// "cancelled".
func TestExecEnvelopeStopReason(t *testing.T) {
	st := fig1State(t)
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		ctx  context.Context
		stop string
	}{{expired, "deadline exceeded"}, {cancelled, "cancelled"}} {
		resp, err := Exec(tc.ctx, st, nil, Request{Op: "envelope"}, muppet.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != CodeIndeterminate || resp.Stop != tc.stop {
			t.Fatalf("envelope: code %d stop %q, want %d %q", resp.Code, resp.Stop, CodeIndeterminate, tc.stop)
		}
		if want := "INDETERMINATE (" + tc.stop + ")\n"; resp.Output != want {
			t.Fatalf("envelope output %q, want %q", resp.Output, want)
		}
	}
}

// TestMaxTimeoutCapsRequests asserts the server-side budget ceiling: a
// request asking for more time than the configured cap is bounded by the
// cap (observable as an indeterminate verdict under a tiny cap).
func TestMaxTimeoutCapsRequests(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 1, QueueDepth: 2, MaxTimeout: time.Nanosecond})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	// Asks for a generous hour; the 1ns cap must win.
	res, got := postOp(t, hs.Client(), hs.URL, Request{Op: "reconcile"},
		map[string]string{HeaderTimeout: "1h"})
	if res.StatusCode != http.StatusOK || got.Code != CodeIndeterminate {
		t.Fatalf("capped reconcile: HTTP %d code %d, want 200/indeterminate", res.StatusCode, got.Code)
	}
	// Asks for nothing: the cap is also the default.
	res, got = postOp(t, hs.Client(), hs.URL, Request{Op: "reconcile"}, nil)
	if res.StatusCode != http.StatusOK || got.Code != CodeIndeterminate {
		t.Fatalf("default-budget reconcile: HTTP %d code %d, want 200/indeterminate", res.StatusCode, got.Code)
	}
}

func TestHTTPErrors(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 1, QueueDepth: 2})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	if res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "bogus"}, nil); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown op: HTTP %d, want 404", res.StatusCode)
	}
	if res, err := hs.Client().Get(hs.URL + "/v1/check"); err != nil || res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on op: %v %v, want 405", res.StatusCode, err)
	} else {
		res.Body.Close()
	}
	if res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "check", Party: "router"}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown party: HTTP %d, want 400", res.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/check", strings.NewReader("{not json"))
	res, err := hs.Client().Do(req)
	if err != nil || res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %v %v, want 400", res.StatusCode, err)
	}
	res.Body.Close()
}

// TestWorkerPanicRecovered asserts the recovery middleware: a panic in a
// worker's solve kills the request — surfacing as a structured 500 with
// the internal verdict code — while the daemon keeps serving, and the
// panic is counted in /metrics alongside the federation counters.
func TestWorkerPanicRecovered(t *testing.T) {
	st := fig1State(t)
	s := New(st, Options{Concurrency: 1, QueueDepth: 4, FedParty: "k8s"})
	defer s.Close()
	real := s.execFn
	s.execFn = func(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget) (Response, error) {
		if req.Op == "reconcile" {
			panic("solver blew up")
		}
		return real(ctx, st, cache, req, b)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	body, _ := json.Marshal(Request{Op: "reconcile"})
	res, err := hs.Client().Post(hs.URL+"/v1/reconcile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking op: status %d, want 500", res.StatusCode)
	}
	var out struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("panic response is not structured JSON: %v", err)
	}
	if out.Code != CodeInternal || !strings.Contains(out.Error, "internal panic") ||
		!strings.Contains(out.Error, "solver blew up") {
		t.Fatalf("panic response %+v, want internal panic with code %d", out, CodeInternal)
	}

	// The worker survived: the next request on the same daemon succeeds.
	res2, ok := postOp(t, hs.Client(), hs.URL, Request{Op: "check", Party: "k8s"}, nil)
	if res2.StatusCode != http.StatusOK || ok.Code != CodeSat {
		t.Fatalf("daemon did not survive the panic: status %d code %d", res2.StatusCode, ok.Code)
	}

	mres, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	raw, _ := io.ReadAll(mres.Body)
	metrics := string(raw)
	if !strings.Contains(metrics, "muppetd_panics_total 1") {
		t.Fatalf("panic not counted:\n%s", metrics)
	}
	// Fed counters are lazily exported: with no federation traffic yet,
	// none of them may appear (a panic must not fabricate fed series).
	if strings.Contains(metrics, "muppetd_fed_") {
		t.Fatalf("idle fed counters exported:\n%s", metrics)
	}
	// The federated peer surface is mounted and survived the panic.
	fres, err := hs.Client().Post(hs.URL+"/fed/join", "application/json",
		strings.NewReader(`{"session":"after-panic"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer fres.Body.Close()
	if fres.StatusCode != http.StatusOK {
		t.Fatalf("/fed/join after panic: status %d", fres.StatusCode)
	}
}
