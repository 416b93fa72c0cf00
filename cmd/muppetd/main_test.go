package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"muppet/internal/server"
)

const fig1Dir = "../../testdata/fig1/"

func fig1Args(extra ...string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-files", fig1Dir + "mesh.yaml," + fig1Dir + "k8s_current.yaml," + fig1Dir + "istio_current.yaml",
		"-k8s-goals", fig1Dir + "k8s_goals.csv",
		"-istio-goals", fig1Dir + "istio_goals_revised.csv",
		"-k8s-offer", "soft",
		"-istio-offer", "soft",
	}
	return append(args, extra...)
}

// startDaemon runs the daemon in-process on an ephemeral port with the
// fig1 bundle and waits until it reports ready. The returned channel
// yields run's exit code.
func startDaemon(t *testing.T, extra ...string) (string, chan int) {
	t.Helper()
	return startDaemonArgs(t, fig1Args(extra...))
}

// startDaemonArgs is startDaemon with fully caller-supplied argv.
func startDaemonArgs(t *testing.T, args []string) (string, chan int) {
	t.Helper()
	readyCh := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run(args, func(addr string) { readyCh <- addr })
	}()
	var addr string
	select {
	case addr = <-readyCh:
	case code := <-exit:
		t.Fatalf("daemon exited %d before becoming ready", code)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never ready: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return addr, exit
}

func TestVersionFlag(t *testing.T) {
	if code := run([]string{"-version"}, nil); code != 0 {
		t.Fatalf("-version: exit %d", code)
	}
}

func TestBadInvocations(t *testing.T) {
	if code := run([]string{"-no-such-flag"}, nil); code != server.CodeUsage {
		t.Fatalf("bad flag: exit %d, want %d", code, server.CodeUsage)
	}
	if code := run([]string{"-strategy", "bogus"}, nil); code != server.CodeUsage {
		t.Fatalf("bad strategy: exit %d, want %d", code, server.CodeUsage)
	}
	if code := run([]string{"-files", "does-not-exist.yaml"}, nil); code != server.CodeInternal {
		t.Fatalf("bad files: exit %d, want %d", code, server.CodeInternal)
	}
	if code := run([]string{}, nil); code != server.CodeUsage {
		t.Fatalf("no inputs: exit %d, want %d", code, server.CodeUsage)
	}
	if code := run([]string{"-tenant-dir", t.TempDir()}, nil); code != server.CodeInternal {
		t.Fatalf("empty tenant dir: exit %d, want %d", code, server.CodeInternal)
	}
	// muppetd has no -portfolio or -router flag: both must fail as
	// unknown flags rather than be accepted and ignored.
	if code := run(fig1Args("-portfolio", "2"), nil); code != server.CodeUsage {
		t.Fatalf("-portfolio: exit %d, want %d", code, server.CodeUsage)
	}
	if code := run(fig1Args("-router", "r.yaml"), nil); code != server.CodeUsage {
		t.Fatalf("-router: exit %d, want %d", code, server.CodeUsage)
	}
	if code := run(fig1Args("-addr", "host.invalid:0"), nil); code != server.CodeInternal {
		t.Fatalf("unbindable address: exit %d, want %d", code, server.CodeInternal)
	}
}

// TestSmoke is the CI smoke sequence in miniature: start the daemon,
// probe /healthz, run one check, shut down cleanly with SIGINT.
func TestSmoke(t *testing.T) {
	addr, exit := startDaemon(t)
	res, err := http.Get("http://" + addr + "/healthz")
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", res, err)
	}
	res.Body.Close()

	body := bytes.NewReader([]byte(`{"party":"k8s"}`))
	res, err = http.Post("http://"+addr+"/v1/check", "application/json", body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("check: %v %v", res, err)
	}
	var out server.Response
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("check response: %v", err)
	}
	res.Body.Close()
	if out.Code != server.CodeSat || out.Output == "" {
		t.Fatalf("check verdict: code %d output %q", out.Code, out.Output)
	}

	syscall.Kill(os.Getpid(), syscall.SIGINT)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("shutdown exit %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// writeTenant materializes `<dir>/<id>/tenant.yaml` plus the fig1 input
// bundle it names, with a per-tenant K8s goals CSV banning the given port.
func writeTenant(t *testing.T, dir, id string, banPort int) {
	t.Helper()
	td := filepath.Join(dir, id)
	if err := os.MkdirAll(td, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"mesh.yaml", "k8s_current.yaml", "istio_current.yaml", "istio_goals_revised.csv"} {
		data, err := os.ReadFile(fig1Dir + f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(td, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goals := fmt.Sprintf("port,perm,selector\n%d,DENY,*\n", banPort)
	if err := os.WriteFile(filepath.Join(td, "k8s_goals.csv"), []byte(goals), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := `files:
  - mesh.yaml
  - k8s_current.yaml
  - istio_current.yaml
k8s-goals: k8s_goals.csv
istio-goals: istio_goals_revised.csv
k8s-offer: soft
istio-offer: soft
`
	if err := os.WriteFile(filepath.Join(td, "tenant.yaml"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkTenant(t *testing.T, addr, id string) *server.Response {
	t.Helper()
	res, err := http.Post("http://"+addr+"/t/"+id+"/check", "application/json",
		bytes.NewReader([]byte(`{"party":"k8s"}`)))
	if err != nil {
		t.Fatalf("check %s: %v", id, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("check %s: HTTP %d", id, res.StatusCode)
	}
	var out server.Response
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("check %s: torn response: %v", id, err)
	}
	if out.Code != server.CodeSat || out.Output == "" {
		t.Fatalf("check %s: code %d output %q", id, out.Code, out.Output)
	}
	return &out
}

// TestTenantDirAndSighupRescan boots the daemon on a -tenant-dir with two
// tenants, serves both, then drops a third tenant into the directory and
// delivers SIGHUP: the rescan must pick it up without a restart, and
// removing it plus another SIGHUP must retire it.
func TestTenantDirAndSighupRescan(t *testing.T) {
	dir := t.TempDir()
	writeTenant(t, dir, "alpha", 23)
	writeTenant(t, dir, "beta", 24)
	addr, exit := startDaemonArgs(t, []string{"-addr", "127.0.0.1:0", "-tenant-dir", dir, "-cache-budget-mb", "64"})

	checkTenant(t, addr, "alpha")
	checkTenant(t, addr, "beta")

	// Unknown tenants and the absent default tenant both 404.
	for _, path := range []string{"/t/gamma/check", "/v1/check"} {
		res, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: HTTP %d, want 404", path, res.StatusCode)
		}
	}

	tenants := func() map[string]server.TenantInfo {
		res, err := http.Get("http://" + addr + "/tenants")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var reply server.TenantsReply
		if err := json.NewDecoder(res.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		byID := make(map[string]server.TenantInfo, len(reply.Tenants))
		for _, ti := range reply.Tenants {
			byID[ti.ID] = ti
		}
		return byID
	}
	if got := tenants(); len(got) != 2 {
		t.Fatalf("tenants before rescan: %v", got)
	}

	// Drop in a third tenant and rescan via SIGHUP (the daemon runs
	// in-process, so signalling ourselves reaches its handler).
	writeTenant(t, dir, "gamma", 25)
	syscall.Kill(os.Getpid(), syscall.SIGHUP)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, ok := tenants()["gamma"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP rescan never added gamma")
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkTenant(t, addr, "gamma")

	// Remove it again; the next SIGHUP retires it.
	if err := os.RemoveAll(filepath.Join(dir, "gamma")); err != nil {
		t.Fatal(err)
	}
	syscall.Kill(os.Getpid(), syscall.SIGHUP)
	for {
		if _, ok := tenants()["gamma"]; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP rescan never removed gamma")
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkTenant(t, addr, "alpha")

	syscall.Kill(os.Getpid(), syscall.SIGINT)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("shutdown exit %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestSigtermMidRequestNeverTears sends SIGTERM while concurrent clients
// are mid-request and asserts every response the daemon produced is
// whole: a 200 with parseable JSON carrying a complete verdict (sat or
// structured indeterminate), or a clean admission-level refusal
// (429/503), or a connection-level error once the listener is gone —
// never a torn body. Run under -race this also checks the drain path for
// data races.
func TestSigtermMidRequestNeverTears(t *testing.T) {
	addr, exit := startDaemon(t, "-concurrency", "2", "-queue-depth", "8", "-drain-grace", "2s")

	var (
		wg        sync.WaitGroup
		served    atomic.Int64
		signalled atomic.Bool
		stopAll   = make(chan struct{})
	)
	errs := make(chan error, 64)
	ops := []string{"check", "reconcile", "negotiate"}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopAll:
					return
				default:
				}
				op := ops[(c+i)%len(ops)]
				res, err := http.Post("http://"+addr+"/v1/"+op, "application/json", bytes.NewReader([]byte("{}")))
				if err != nil {
					if !signalled.Load() {
						errs <- fmt.Errorf("client %d: transport error before shutdown: %v", c, err)
					}
					return // listener closed during drain: a clean end
				}
				switch res.StatusCode {
				case http.StatusOK:
					var out server.Response
					if derr := json.NewDecoder(res.Body).Decode(&out); derr != nil {
						errs <- fmt.Errorf("client %d %s: torn response: %v", c, op, derr)
						res.Body.Close()
						return
					}
					if out.Code != server.CodeSat && out.Code != server.CodeUnsat && out.Code != server.CodeIndeterminate {
						errs <- fmt.Errorf("client %d %s: verdict code %d", c, op, out.Code)
					}
					if out.Output == "" {
						errs <- fmt.Errorf("client %d %s: empty output", c, op)
					}
					served.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Clean refusals; during drain these are expected.
					if res.StatusCode == http.StatusServiceUnavailable && !signalled.Load() {
						errs <- fmt.Errorf("client %d: 503 before shutdown", c)
					}
				default:
					errs <- fmt.Errorf("client %d %s: HTTP %d", c, op, res.StatusCode)
				}
				res.Body.Close()
			}
		}(c)
	}

	// Let the clients get some real verdicts, then pull the trigger while
	// requests are still in flight.
	deadline := time.Now().Add(20 * time.Second)
	for served.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served before signal")
	}
	signalled.Store(true)
	syscall.Kill(os.Getpid(), syscall.SIGTERM)

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exit %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain")
	}
	close(stopAll)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
