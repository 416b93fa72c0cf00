package muppet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muppet"
	"muppet/internal/server"
	tenantpool "muppet/internal/tenant"
)

// The delta cross-check suite anchors incremental re-reconciliation the
// same way the encoding pipeline was anchored: applying a bundle edit via
// the warm Rebase path must yield output byte-identical to a cold run on
// the edited bundle, across every encoding configuration. DeltaStats may
// only report how the answer was computed, never change it.

// deltaFixture is one before/after revision pair plus what the plan and
// the rebase must report about it.
type deltaFixture struct {
	name       string
	before     server.Config
	after      server.Config
	compatible bool // warm rebase possible (universe + shapes unchanged)
	wantKept   bool // at least one selector-guarded group must be reused
}

// writeDeltaFixtures builds the revision pairs in dir: a one-tuple goal
// edit, a one-atom concrete-config edit, and a universe-changing goal
// edit (a port outside the grounded inventory).
func writeDeltaFixtures(t *testing.T, dir string) []deltaFixture {
	t.Helper()
	cp := func(dst, src string) {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write := func(dst, content string) {
		if err := os.WriteFile(dst, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A one-tuple goal edit: the port-23 ban flips to an allow. Same port,
	// same universe — the canonical watch-mode event.
	goalsAllow := filepath.Join(dir, "k8s_goals_allow.csv")
	write(goalsAllow, "port,perm,selector\n23,ALLOW,*\n")

	// A one-atom config edit: frontend-policy additionally allows traffic
	// from test-db. Only that policy's selector group changes.
	istioEdited := filepath.Join(dir, "istio_current_edited.yaml")
	orig, err := os.ReadFile("testdata/fig1/istio_current.yaml")
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(orig),
		"      app: frontend\n  ingress:\n    allowFromServices:\n      - test-backend",
		"      app: frontend\n  ingress:\n    allowFromServices:\n      - test-backend\n      - test-db", 1)
	if edited == string(orig) {
		t.Fatal("istio_current.yaml edit did not apply")
	}
	write(istioEdited, edited)

	// A universe-changing goal edit: port 99 is outside the Fig. 1
	// inventory, so the grounded bounds cannot express the new goal.
	goalsNewPort := filepath.Join(dir, "k8s_goals_port99.csv")
	write(goalsNewPort, "port,perm,selector\n23,DENY,*\n99,DENY,*\n")

	// Copy the shared inputs so each fixture is self-contained on disk.
	mesh := filepath.Join(dir, "mesh.yaml")
	k8sCur := filepath.Join(dir, "k8s_current.yaml")
	istioCur := filepath.Join(dir, "istio_current.yaml")
	k8sGoals := filepath.Join(dir, "k8s_goals.csv")
	istioGoals := filepath.Join(dir, "istio_goals_revised.csv")
	cp(mesh, "testdata/fig1/mesh.yaml")
	cp(k8sCur, "testdata/fig1/k8s_current.yaml")
	cp(istioCur, "testdata/fig1/istio_current.yaml")
	cp(k8sGoals, "testdata/fig1/k8s_goals.csv")
	cp(istioGoals, "testdata/fig1/istio_goals_revised.csv")

	files := mesh + "," + k8sCur + "," + istioCur
	filesEdited := mesh + "," + k8sCur + "," + istioEdited
	relaxed := server.Config{
		Files: files, K8sGoals: k8sGoals, IstioGoals: istioGoals,
		K8sOffer: "soft", IstioOffer: "soft",
	}
	withConfig := func(base server.Config, edit func(*server.Config)) server.Config {
		edit(&base)
		return base
	}
	return []deltaFixture{
		{
			name:       "goal-edit",
			before:     relaxed,
			after:      withConfig(relaxed, func(c *server.Config) { c.K8sGoals = goalsAllow }),
			compatible: true,
		},
		{
			name: "config-edit",
			before: withConfig(relaxed, func(c *server.Config) {
				c.IstioOffer = "fixed"
			}),
			after: withConfig(relaxed, func(c *server.Config) {
				c.IstioOffer = "fixed"
				c.Files = filesEdited
			}),
			compatible: true,
			wantKept:   true,
		},
		{
			name:       "universe-change",
			before:     relaxed,
			after:      withConfig(relaxed, func(c *server.Config) { c.K8sGoals = goalsNewPort }),
			compatible: false,
		},
	}
}

// deltaServe runs one op for revision B via the warm rebase path: warm
// the cache on revision A, diff, rebase, serve. Falls back to a cold
// build exactly when the plan or the rebase says it must.
func deltaServe(t *testing.T, stA, stB *server.State, req server.Request) (server.Response, muppet.DeltaStats) {
	t.Helper()
	ctx := context.Background()
	snapA, err := stA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := stB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plan := muppet.CompareRevisions(snapA, snapB)

	cache := muppet.NewSolveCache()
	if _, err := server.Exec(ctx, stA, cache, req, muppet.Budget{}); err != nil {
		t.Fatal(err)
	}

	var serveState *server.State
	if plan.Compatible {
		rb, err := stB.RebasedOn(stA.Sys)
		if err != nil {
			t.Fatalf("compatible plan but rebase failed: %v", err)
		}
		serveState = rb
	}
	var resp server.Response
	if serveState != nil {
		ds := cache.Rebase(plan, func() {
			r, err := server.Exec(ctx, serveState, cache, req, muppet.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			resp = r
		})
		return resp, ds
	}
	// Cold fallback: fresh sessions over the new revision's own system.
	cold := muppet.NewSolveCache()
	ds := cold.Rebase(plan, func() {
		r, err := server.Exec(ctx, stB, cold, req, muppet.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		resp = r
	})
	return resp, ds
}

// TestDeltaRebaseMatchesColdExec is the acceptance gate: for every
// fixture, op, and encoding configuration, the warm rebase answer equals
// the cold answer byte for byte.
func TestDeltaRebaseMatchesColdExec(t *testing.T) {
	fixtures := writeDeltaFixtures(t, t.TempDir())
	reqs := []server.Request{
		{Op: "reconcile"},
		{Op: "check", Party: "istio"},
	}
	for _, fx := range fixtures {
		for _, req := range reqs {
			req := req
			fx := fx
			t.Run(fx.name+"/"+req.Op, func(t *testing.T) {
				for _, cfg := range encodingConfigs {
					withEncoding(cfg.enc, func() {
						stA, err := server.Load(fx.before)
						if err != nil {
							t.Fatal(err)
						}
						stB, err := server.Load(fx.after)
						if err != nil {
							t.Fatal(err)
						}
						coldResp, err := server.Exec(context.Background(), stB, nil, req, muppet.Budget{})
						if err != nil {
							t.Fatal(err)
						}
						deltaResp, ds := deltaServe(t, stA, stB, req)
						if ds.Cold == fx.compatible {
							t.Fatalf("%s: DeltaStats.Cold = %v (reason %q), want %v",
								cfg.name, ds.Cold, ds.Reason, !fx.compatible)
						}
						if fx.wantKept && ds.GroupsKept == 0 {
							t.Fatalf("%s: no selector groups kept: %+v", cfg.name, ds)
						}
						if deltaResp.Code != coldResp.Code {
							t.Fatalf("%s: delta code %d, cold %d", cfg.name, deltaResp.Code, coldResp.Code)
						}
						if deltaResp.Output != coldResp.Output {
							t.Fatalf("%s: delta output differs from cold:\n--- cold ---\n%s\n--- delta ---\n%s",
								cfg.name, coldResp.Output, deltaResp.Output)
						}
					})
				}
			})
		}
	}
}

// TestReloadedPoolMatchesColdExec carries the delta gate to the request
// path: a tenant primed on every op at revision A and reloaded to
// revision B serves every op on B byte-identical to a cold Exec of B,
// across every encoding configuration. A reload that keeps the universe
// keeps the tenant's pool, so every read on B checks out the cache primed
// on A and the pool records no new miss; one that changes the universe
// starts a fresh pool, so the first read on B misses and goes cold.
func TestReloadedPoolMatchesColdExec(t *testing.T) {
	fixtures := writeDeltaFixtures(t, t.TempDir())
	reqs := []server.Request{
		{Op: "check", Party: "k8s"},
		{Op: "check", Party: "istio"},
		{Op: "envelope", From: "k8s", To: "istio", Leakage: true},
		{Op: "reconcile"},
		{Op: "conform"},
		{Op: "negotiate"},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			stB, err := server.Load(fx.after)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range encodingConfigs {
				withEncoding(cfg.enc, func() {
					reloadedPoolServe(t, cfg.name, fx, stB, reqs)
				})
			}
		})
	}
}

// reloadedPoolServe runs one fixture of TestReloadedPoolMatchesColdExec
// under the current encoding configuration.
func reloadedPoolServe(t *testing.T, enc string, fx deltaFixture, stB *server.State, reqs []server.Request) {
	t.Helper()
	cold := make([]server.Response, len(reqs))
	for i, req := range reqs {
		resp, err := server.Exec(context.Background(), stB, nil, req, muppet.Budget{})
		if err != nil {
			t.Fatalf("%s: cold %s: %v", enc, req.Op, err)
		}
		cold[i] = resp
	}

	cur := fx.before
	reg := tenantpool.NewRegistry[*server.State](tenantpool.NewLedger(0))
	if _, err := reg.Add("acme", func() (*server.State, string, error) { return server.LoaderFromConfig(cur)() }); err != nil {
		t.Fatal(err)
	}
	// One worker: requests run one at a time, so the pool holds one cache.
	s := server.NewMulti(reg, server.Options{Concurrency: 1, QueueDepth: 4})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()
	serve := func(req server.Request) server.Response {
		t.Helper()
		body, _ := json.Marshal(req)
		res, err := http.Post(hs.URL+"/t/acme/"+req.Op, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var out server.Response
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: HTTP %d, decode %v", enc, req.Op, res.StatusCode, err)
		}
		return out
	}

	for _, req := range reqs {
		serve(req)
	}
	primed, _ := reg.Get("acme")
	missesA := primed.Pool.Stats().Misses

	cur = fx.after
	ent, swapped, err := reg.Reload("acme", false)
	if err != nil || !swapped {
		t.Fatalf("%s: reload: swapped=%v err=%v", enc, swapped, err)
	}
	if (ent.Pool == primed.Pool) != fx.compatible {
		t.Fatalf("%s: revision 2 shares the primed pool = %v, want %v", enc, ent.Pool == primed.Pool, fx.compatible)
	}
	for i, req := range reqs {
		got := serve(req)
		if got.Code != cold[i].Code || got.Output != cold[i].Output {
			t.Fatalf("%s: %s on the reloaded tenant differs from cold exec\n--- cold (code %d) ---\n%s\n--- served (code %d) ---\n%s",
				enc, req.Op, cold[i].Code, cold[i].Output, got.Code, got.Output)
		}
	}
	wantMisses := int64(1) // the universe changed: the first read goes cold
	if fx.compatible {
		wantMisses = 0 // every read lands on the carried cache
	}
	if got := ent.Pool.Stats().Misses - missesA; got != wantMisses {
		t.Fatalf("%s: pool misses on revision 2 = %d, want %d", enc, got, wantMisses)
	}
}

// TestDeltaPlanContent pins what the plan reports for the canonical
// one-tuple edits: the goal flip shows up as one removed + one added
// goal, the config edit as exactly one added atom.
func TestDeltaPlanContent(t *testing.T) {
	fixtures := writeDeltaFixtures(t, t.TempDir())
	snap := func(cfg server.Config) *muppet.DeltaRevision {
		st, err := server.Load(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			plan := muppet.CompareRevisions(snap(fx.before), snap(fx.after))
			if plan.Compatible != fx.compatible {
				t.Fatalf("Compatible = %v (reason %q), want %v", plan.Compatible, plan.Reason, fx.compatible)
			}
			switch fx.name {
			case "goal-edit":
				if len(plan.GoalsAdded) != 1 || len(plan.GoalsRemoved) != 1 || len(plan.AtomsChanged) != 0 {
					t.Fatalf("plan = %+v", plan)
				}
			case "config-edit":
				if len(plan.AtomsChanged) != 1 || !plan.AtomsChanged[0].Added {
					t.Fatalf("AtomsChanged = %v", plan.AtomsChanged)
				}
				if len(plan.GoalsAdded)+len(plan.GoalsRemoved) != 0 {
					t.Fatalf("unexpected goal churn: %+v", plan)
				}
			case "universe-change":
				if !strings.Contains(plan.Reason, "universe") {
					t.Fatalf("reason = %q", plan.Reason)
				}
			}
		})
	}
}
