package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"muppet/internal/tenant"
)

// tenantManifest writes one tenant under dir: fig1's bundle files plus a
// tenant.yaml, with the K8s goals CSV made per-tenant so tests can vary
// (and hot-rewrite) it independently.
func tenantManifest(t *testing.T, dir, id, k8sGoals string) string {
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
	goalsPath := filepath.Join(td, "k8s_goals.csv")
	if err := os.WriteFile(goalsPath, []byte(k8sGoals), 0o644); err != nil {
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
	if err := os.WriteFile(filepath.Join(td, tenant.ManifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	return goalsPath
}

const (
	goalsBan23 = "port,perm,selector\n23,DENY,*\n"
	goalsBan24 = "port,perm,selector\n24,DENY,*\n"
)

// refResponse computes the cold, direct-execution reference for a tenant
// manifest — what the one-shot CLI would print for the same inputs.
func refResponse(t *testing.T, dir, id string, req Request) Response {
	t.Helper()
	st, _, err := ManifestLoader(filepath.Join(dir, id, tenant.ManifestName))()
	if err != nil {
		t.Fatal(err)
	}
	return execDirect(t, st, req)
}

func postTenantOp(t *testing.T, client *http.Client, base, tenantID string, req Request) (*http.Response, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	res, err := client.Post(base+"/t/"+tenantID+"/"+req.Op, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out Response
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatalf("%s/%s: bad response body: %v", tenantID, req.Op, err)
		}
	} else {
		io.Copy(io.Discard, res.Body)
	}
	return res, out
}

// multiTenantServer builds a server over a tenant directory.
func multiTenantServer(t *testing.T, dir string, opts Options) *Server {
	t.Helper()
	reg := tenant.NewRegistry[*State](tenant.NewLedger(opts.CacheBudgetBytes))
	reg.SetDiscover(DirDiscover(dir))
	rep, err := reg.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	for id, ferr := range rep.Failed {
		t.Fatalf("tenant %s failed to load: %v", id, ferr)
	}
	return NewMulti(reg, opts)
}

// TestMultiTenantServing is the satellite acceptance: a two-tenant
// daemon serves interleaved traffic with outputs byte-identical to each
// tenant's cold direct execution, and tenants with different inputs get
// different answers.
func TestMultiTenantServing(t *testing.T) {
	dir := t.TempDir()
	tenantManifest(t, dir, "alpha", goalsBan23)
	tenantManifest(t, dir, "bravo", goalsBan24)
	s := multiTenantServer(t, dir, Options{Concurrency: 2, QueueDepth: 16})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	reqs := []Request{{Op: "check", Party: "k8s"}, {Op: "reconcile"}}
	want := map[string]map[string]Response{}
	for _, id := range []string{"alpha", "bravo"} {
		want[id] = map[string]Response{}
		for _, req := range reqs {
			want[id][req.Op] = refResponse(t, dir, id, req)
		}
	}
	if want["alpha"]["reconcile"].Output == want["bravo"]["reconcile"].Output {
		t.Fatal("test setup: the two tenants must produce different reconcile outputs")
	}

	// Interleave tenants so warm caches for both coexist in the pools.
	for round := 0; round < 2; round++ {
		for _, id := range []string{"alpha", "bravo"} {
			for _, req := range reqs {
				res, got := postTenantOp(t, hs.Client(), hs.URL, id, req)
				if res.StatusCode != http.StatusOK {
					t.Fatalf("%s/%s: HTTP %d", id, req.Op, res.StatusCode)
				}
				w := want[id][req.Op]
				if got.Code != w.Code || got.Output != w.Output {
					t.Fatalf("%s/%s: daemon response differs from cold direct execution\n--- daemon ---\n%s\n--- direct ---\n%s",
						id, req.Op, got.Output, w.Output)
				}
			}
		}
	}

	// No "default" tenant in this registry: the /v1/ surface 404s instead
	// of silently serving somebody's bundle.
	if res, _ := postOp(t, hs.Client(), hs.URL, Request{Op: "check"}, nil); res.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/check without a default tenant: HTTP %d, want 404", res.StatusCode)
	}
	if res, _ := postTenantOp(t, hs.Client(), hs.URL, "ghost", Request{Op: "check"}); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: HTTP %d, want 404", res.StatusCode)
	}
	if res, _ := postTenantOp(t, hs.Client(), hs.URL, "alpha", Request{Op: "bogus"}); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown op: HTTP %d, want 404", res.StatusCode)
	}
}

func TestTenantsAdminSurface(t *testing.T) {
	dir := t.TempDir()
	goalsPath := tenantManifest(t, dir, "alpha", goalsBan23)
	tenantManifest(t, dir, "bravo", goalsBan24)
	s := multiTenantServer(t, dir, Options{Concurrency: 1, QueueDepth: 4})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	getTenants := func() TenantsReply {
		t.Helper()
		res, err := hs.Client().Get(hs.URL + "/tenants")
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("GET /tenants: %v %v", res.StatusCode, err)
		}
		defer res.Body.Close()
		var reply TenantsReply
		if err := json.NewDecoder(res.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	reply := getTenants()
	if len(reply.Tenants) != 2 || reply.Tenants[0].ID != "alpha" || reply.Tenants[1].ID != "bravo" {
		t.Fatalf("tenants = %+v", reply.Tenants)
	}
	for _, ti := range reply.Tenants {
		if ti.Revision != 1 || ti.Fingerprint == "" {
			t.Fatalf("tenant %s: %+v", ti.ID, ti)
		}
	}

	reload := func(id, query string) (*http.Response, ReloadReply) {
		t.Helper()
		res, err := hs.Client().Post(hs.URL+"/tenants/"+id+"/reload"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var rr ReloadReply
		if res.StatusCode == http.StatusOK {
			json.NewDecoder(res.Body).Decode(&rr)
		} else {
			io.Copy(io.Discard, res.Body)
		}
		return res, rr
	}

	// Unchanged inputs: reload is a fingerprint-skipped no-op.
	if res, rr := reload("alpha", ""); res.StatusCode != http.StatusOK || rr.Swapped || rr.Revision != 1 {
		t.Fatalf("no-op reload: HTTP %d %+v", res.StatusCode, rr)
	}
	// Forced: swaps regardless.
	if res, rr := reload("alpha", "?force=1"); res.StatusCode != http.StatusOK || !rr.Swapped || rr.Revision != 2 {
		t.Fatalf("forced reload: HTTP %d %+v", res.StatusCode, rr)
	}
	// Changed inputs: a plain reload swaps.
	if err := os.WriteFile(goalsPath, []byte(goalsBan24), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, rr := reload("alpha", ""); res.StatusCode != http.StatusOK || !rr.Swapped || rr.Revision != 3 {
		t.Fatalf("changed reload: HTTP %d %+v", res.StatusCode, rr)
	}
	// A broken edit keeps the old revision serving and reports the error.
	if err := os.WriteFile(goalsPath, []byte("port,perm,selector\nnot-a-port,deny,all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, _ := reload("alpha", ""); res.StatusCode != http.StatusBadGateway {
		t.Fatalf("broken reload: HTTP %d, want 502", res.StatusCode)
	}
	if got := getTenants().Tenants[0]; got.Revision != 3 {
		t.Fatalf("revision after failed reload = %d, want 3", got.Revision)
	}
	if res, got := postTenantOp(t, hs.Client(), hs.URL, "alpha", Request{Op: "check", Party: "k8s"}); res.StatusCode != http.StatusOK || got.Code != CodeSat {
		t.Fatalf("serving after failed reload: HTTP %d code %d", res.StatusCode, got.Code)
	}

	if res, _ := reload("ghost", ""); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant reload: HTTP %d, want 404", res.StatusCode)
	}

	// The tenant metrics surface carries the per-tenant series.
	mres, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	body, _ := io.ReadAll(mres.Body)
	text := string(body)
	for _, wantLine := range []string{
		"muppetd_tenants 2",
		`muppetd_tenant_revision{tenant="alpha"} 3`,
		`muppetd_tenant_reloads_total{tenant="alpha"} 2`,
		`muppetd_tenant_requests_total{tenant="alpha",op="check",code="0"} 1`,
		`muppetd_tenant_cache_idle_caches{tenant="alpha"}`,
		"muppetd_cache_budget_bytes 0",
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("/metrics missing %q", wantLine)
		}
	}
}

// TestHotReloadUnderLoad is the tentpole acceptance test: under
// concurrent traffic, a hot reload swaps a tenant's state without losing
// or tearing a single request — every response is byte-identical to the
// old revision's reference or the new one's, and once the swap is
// observed, traffic converges on the new answers. Banning port 24 instead
// of 23 grows the universe, so the new revision starts on a fresh pool;
// flipping the port-23 ban to an allow keeps it, so the new revision
// shares the old one's pool and caches checked out by old-revision
// requests come back into it.
func TestHotReloadUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name      string
		newGoals  string
		keepsPool bool
	}{
		{"universe-change", goalsBan24, false},
		{"same-universe", goalsAllow23, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hotReloadUnderLoad(t, tc.newGoals, tc.keepsPool)
		})
	}
}

func hotReloadUnderLoad(t *testing.T, newGoals string, keepsPool bool) {
	dir := t.TempDir()
	goalsPath := tenantManifest(t, dir, "acme", goalsBan23)
	req := Request{Op: "reconcile"}
	oldRef := refResponse(t, dir, "acme", req)

	s := multiTenantServer(t, dir, Options{Concurrency: 4, QueueDepth: 64})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()
	first, _ := s.Registry().Get("acme")

	// Compute the post-reload reference from a scratch copy of the same
	// inputs, before the live tenant dir is rewritten.
	refDir := t.TempDir()
	tenantManifest(t, refDir, "acme", newGoals)
	newRef := refResponse(t, refDir, "acme", req)
	if oldRef.Output == newRef.Output {
		t.Fatal("test setup: the two revisions must produce different outputs")
	}

	const clients, perClient = 6, 6
	swapped := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	sawOld := false
	sawNew := false
	var tallyMu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/2 {
					// Mid-traffic, rewrite the tenant's goals and hot-reload.
					if err := os.WriteFile(goalsPath, []byte(newGoals), 0o644); err != nil {
						errs <- err
						return
					}
					res, err := hs.Client().Post(hs.URL+"/tenants/acme/reload", "", nil)
					if err != nil {
						errs <- err
						return
					}
					res.Body.Close()
					if res.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("reload: HTTP %d", res.StatusCode)
						return
					}
					close(swapped)
				}
				res, got := postTenantOp(t, hs.Client(), hs.URL, "acme", req)
				if res.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: HTTP %d", c, res.StatusCode)
					return
				}
				switch got.Output {
				case oldRef.Output:
					tallyMu.Lock()
					sawOld = true
					tallyMu.Unlock()
				case newRef.Output:
					tallyMu.Lock()
					sawNew = true
					tallyMu.Unlock()
				default:
					errs <- fmt.Errorf("client %d: torn response, matches neither revision:\n%s", c, got.Output)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !sawOld || !sawNew {
		t.Logf("revision mix: old=%v new=%v (both sides exercised is best, but timing-dependent)", sawOld, sawNew)
	}

	// After the dust settles, traffic must serve the new revision only.
	res, got := postTenantOp(t, hs.Client(), hs.URL, "acme", req)
	if res.StatusCode != http.StatusOK || got.Output != newRef.Output {
		t.Fatalf("post-reload response still on old revision (HTTP %d)", res.StatusCode)
	}
	ent, _ := s.Registry().Get("acme")
	if ent.Revision != 2 {
		t.Fatalf("revision = %d, want 2", ent.Revision)
	}
	if (ent.Pool == first.Pool) != keepsPool {
		t.Fatalf("new revision shares the old pool = %v, want %v", ent.Pool == first.Pool, keepsPool)
	}
}

// TestRebasedOnChecksVocabulary: RebasedOn enforces its own precondition.
// The port-23 ban's goals compile over the port-24 ban's system (port 23
// is in both inventories), but the universes differ (13 and 14 atoms), so
// the rebase must fail. So must one onto a system whose universe matches
// but whose policy selects other services: the selector lives in the
// system, not in the atoms.
func TestRebasedOnChecksVocabulary(t *testing.T) {
	dir := t.TempDir()
	load := func(id, goals string) *State {
		t.Helper()
		tenantManifest(t, dir, id, goals)
		st, _, err := ManifestLoader(filepath.Join(dir, id, tenant.ManifestName))()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ban23, ban24, allow23 := load("ban23", goalsBan23), load("ban24", goalsBan24), load("allow23", goalsAllow23)
	if n, m := len(ban23.Sys.Universe.Atoms()), len(ban24.Sys.Universe.Atoms()); n != 13 || m != 14 {
		t.Fatalf("test setup: universes of %d and %d atoms, want 13 and 14", n, m)
	}
	if _, err := ban23.RebasedOn(ban24.Sys); err == nil {
		t.Fatal("ban-23 state rebased on the ban-24 system: want an error, the universes differ")
	}
	if _, err := ban24.RebasedOn(ban23.Sys); err == nil {
		t.Fatal("ban-24 state rebased on the ban-23 system: want an error, port 24 is not grounded")
	}

	tenantManifest(t, dir, "retarget", goalsBan23)
	istioPath := filepath.Join(dir, "retarget", "istio_current.yaml")
	orig, err := os.ReadFile(istioPath)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(orig), "      app: frontend\n  ingress", "      app: db\n  ingress", 1)
	if edited == string(orig) {
		t.Fatal("test setup: selector edit did not apply")
	}
	if err := os.WriteFile(istioPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	retarget, _, err := ManifestLoader(filepath.Join(dir, "retarget", tenant.ManifestName))()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := retarget.RebasedOn(ban23.Sys); err == nil {
		t.Fatal("retargeted policy rebased on the old system: want an error, its selector changed")
	}

	// Same universe and structure: the rebased state answers as its own
	// system would.
	rb, err := allow23.RebasedOn(ban23.Sys)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Sys != ban23.Sys {
		t.Fatal("rebased state is not anchored on the given system")
	}
	for _, req := range []Request{{Op: "reconcile"}, {Op: "check", Party: "k8s"}} {
		if got, want := execDirect(t, rb, req), execDirect(t, allow23, req); got != want {
			t.Fatalf("%s: rebased answer differs from the state's own:\n--- own ---\n%s\n--- rebased ---\n%s",
				req.Op, want.Output, got.Output)
		}
	}
}

// poolCounters are the /metrics series that count pool activity and must
// never go down.
var poolCounters = []string{
	"muppetd_sessions_built_total",
	"muppetd_session_reuses_total",
	"muppetd_translation_cache_total",
	"muppetd_tenant_sessions_built_total",
	"muppetd_tenant_session_reuses_total",
	"muppetd_tenant_cache_evictions_total",
}

// scrapeCounters reads every poolCounters sample from /metrics, keyed by
// series name plus labels.
func scrapeCounters(t *testing.T, hs *httptest.Server) map[string]float64 {
	t.Helper()
	res, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		if !slices.Contains(poolCounters, name) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// sessionCounters are the /metrics counters summed from solving sessions'
// own cumulative counts, which a session's eviction must not take away.
var sessionCounters = []string{
	`muppetd_translation_cache_total{kind="struct_hit"}`,
	`muppetd_translation_cache_total{kind="miss"}`,
	"muppetd_encoding_clauses_removed_total",
	"muppetd_solver_restored_total",
}

// scrapeSeries reads the named series, labels included, from /metrics.
func scrapeSeries(t *testing.T, hs *httptest.Server, names []string) map[string]float64 {
	t.Helper()
	res, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || !slices.Contains(names, series) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[series] = v
	}
	if len(out) != len(names) {
		t.Fatalf("scraped %d of %d series: %v", len(out), len(names), out)
	}
	return out
}

// TestEvictionKeepsSessionCounters: under a one-byte budget every session
// is evicted at checkin, so the counters on /metrics that sum sessions'
// cumulative counts must come from the evicted sessions. They must show
// the translations the traffic did, and never go down between scrapes.
func TestEvictionKeepsSessionCounters(t *testing.T) {
	dir := t.TempDir()
	tenantManifest(t, dir, "acme", goalsBan23)
	s := multiTenantServer(t, dir, Options{Concurrency: 1, QueueDepth: 4, CacheBudgetBytes: 1})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	prev := scrapeSeries(t, hs, sessionCounters)
	for round := 1; round <= 3; round++ {
		for _, req := range []Request{{Op: "reconcile"}, {Op: "check", Party: "k8s"}} {
			if res, _ := postTenantOp(t, hs.Client(), hs.URL, "acme", req); res.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d", req.Op, res.StatusCode)
			}
		}
		cur := scrapeSeries(t, hs, sessionCounters)
		for _, series := range sessionCounters {
			if cur[series] < prev[series] {
				t.Errorf("round %d: %s went down from %v to %v", round, series, prev[series], cur[series])
			}
		}
		prev = cur
	}
	if miss := prev[`muppetd_translation_cache_total{kind="miss"}`]; miss <= 0 {
		t.Fatalf("translation misses = %v after six requests on evicted sessions, want > 0", miss)
	}
}

// TestPoolCountersSurviveReload: the pool counters on /metrics count per
// tenant, not per revision. A reload that keeps the universe keeps the
// pool; one that changes it hands the retired pool's counts to the new
// pool. Either way no series goes down. The unlimited budget keeps caches
// warm (reuses grow); the one-byte budget evicts every session at
// checkin (evictions grow).
func TestPoolCountersSurviveReload(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			goalsPath := tenantManifest(t, dir, "acme", goalsBan23)
			s := multiTenantServer(t, dir, Options{Concurrency: 1, QueueDepth: 4, CacheBudgetBytes: budget})
			defer s.Close()
			hs := httptest.NewServer(s)
			defer hs.Close()

			serve := func() {
				t.Helper()
				for i := 0; i < 3; i++ {
					for _, req := range []Request{{Op: "reconcile"}, {Op: "check", Party: "k8s"}} {
						if res, _ := postTenantOp(t, hs.Client(), hs.URL, "acme", req); res.StatusCode != http.StatusOK {
							t.Fatalf("%s: HTTP %d", req.Op, res.StatusCode)
						}
					}
				}
			}
			serve()
			before := scrapeCounters(t, hs)
			if len(before) < len(poolCounters) {
				t.Fatalf("scraped %d pool series, want at least %d: %v", len(before), len(poolCounters), before)
			}
			grown := "muppetd_session_reuses_total"
			if budget > 0 {
				grown = `muppetd_tenant_cache_evictions_total{tenant="acme"}`
			}
			if before[grown] == 0 {
				t.Fatalf("test setup: %s is 0 before any reload", grown)
			}
			for _, reload := range []struct{ name, goals string }{
				{"same-universe", goalsAllow23},
				{"universe-change", goalsBan24},
			} {
				if err := os.WriteFile(goalsPath, []byte(reload.goals), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, swapped, err := s.Registry().Reload("acme", false); err != nil || !swapped {
					t.Fatalf("%s reload: swapped=%v err=%v", reload.name, swapped, err)
				}
				after := scrapeCounters(t, hs)
				for series, v := range before {
					if got, ok := after[series]; !ok || got < v {
						t.Errorf("after the %s reload: %s = %v (present %v), was %v", reload.name, series, got, ok, v)
					}
				}
				serve()
				before = scrapeCounters(t, hs)
			}
		})
	}
}
