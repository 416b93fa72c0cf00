package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"muppet"
)

// literalState builds a State the way a caller outside this package may:
// as a struct literal over a freshly compiled system, with no goals
// compiled yet.
func literalState(t *testing.T, cfg Config) *State {
	t.Helper()
	bundle, err := muppet.LoadFiles(strings.Split(cfg.Files, ",")...)
	if err != nil {
		t.Fatal(err)
	}
	kg, err := muppet.LoadK8sGoals(cfg.K8sGoals)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := muppet.LoadIstioGoals(cfg.IstioGoals)
	if err != nil {
		t.Fatal(err)
	}
	var extra []int
	for _, g := range kg {
		extra = append(extra, g.Port)
	}
	for _, g := range ig {
		for _, pt := range []muppet.PortTerm{g.SrcPort, g.DstPort} {
			if pt.Kind == muppet.PortLit {
				extra = append(extra, pt.Port)
			}
		}
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies, extra)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{Sys: sys, Bundle: bundle, K8sGoalRows: kg, IstioGoalRows: ig}
	if st.K8sOffer, err = ParseOffer(cfg.K8sOffer); err != nil {
		t.Fatal(err)
	}
	if st.IstioOffer, err = ParseOffer(cfg.IstioOffer); err != nil {
		t.Fatal(err)
	}
	return st
}

func loadFig1(t *testing.T) *State {
	t.Helper()
	st, err := Load(fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStateSharesCompiledGoals pins the sharing contract of a State: its
// goals are compiled once and every party it builds carries its own goal
// slice over the same formulas, so concurrent requests answer exactly as
// sequential ones and a request that edits its parties leaves the others'
// untouched. CI runs it repeatedly under the race detector.
func TestStateSharesCompiledGoals(t *testing.T) {
	ctx := context.Background()
	ref := loadFig1(t)
	want := make(map[string]Response)
	for _, op := range Ops() {
		want[op] = execDirect(t, ref, Request{Op: op})
	}

	t.Run("concurrent-exec", func(t *testing.T) {
		// A rebased state compiles its goals over another revision's
		// system; a struct literal compiles them on first use, so its
		// workers race the one compile.
		rb, err := loadFig1(t).RebasedOn(loadFig1(t).Sys)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]*State{"rebased": rb, "literal": literalState(t, fig1Config())} {
			const workers = 8
			ops := Ops()
			var wg sync.WaitGroup
			errs := make(chan error, workers*len(ops))
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cache := muppet.NewSolveCache()
					for i := range ops {
						op := ops[(w+i)%len(ops)]
						got, err := Exec(ctx, st, cache, Request{Op: op}, muppet.Budget{})
						if err != nil {
							errs <- fmt.Errorf("%s worker %d %s: %v", name, w, op, err)
							return
						}
						if got != want[op] {
							errs <- fmt.Errorf("%s worker %d %s: answer differs from the sequential reference:\n--- want ---\n%s\n--- got ---\n%s",
								name, w, op, want[op].Output, got.Output)
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}
	})

	t.Run("fresh-parties-share-formulas", func(t *testing.T) {
		st := loadFig1(t)
		k1, i1, err := st.FreshParties()
		if err != nil {
			t.Fatal(err)
		}
		k2, i2, err := st.FreshParties()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*muppet.Party{{k1, k2}, {i1, i2}} {
			a, b := pair[0], pair[1]
			if a == b {
				t.Fatalf("%s: two FreshParties calls returned the same party", a.Name)
			}
			if len(a.Goals) == 0 || len(a.Goals) != len(b.Goals) {
				t.Fatalf("%s: %d and %d goals, want the same non-zero count", a.Name, len(a.Goals), len(b.Goals))
			}
			if &a.Goals[0] == &b.Goals[0] {
				t.Fatalf("%s: the two parties share one goal slice", a.Name)
			}
			for i := range a.Goals {
				if a.Goals[i].Formula != b.Goals[i].Formula || a.Goals[i].Name != b.Goals[i].Name {
					t.Errorf("%s goal %d: formulas are not the shared compiled ones", a.Name, i)
				}
			}
		}
	})

	t.Run("party-edits-stay-private", func(t *testing.T) {
		st := loadFig1(t)
		k1, i1, err := st.FreshParties()
		if err != nil {
			t.Fatal(err)
		}
		k2, i2, err := st.FreshParties()
		if err != nil {
			t.Fatal(err)
		}
		k2Goals, i2Goals := slices.Clone(k2.Goals), slices.Clone(i2.Goals)
		k2Desc, i2Desc := k2.Describe(), i2.Describe()

		res := muppet.NewSolveCache().ReconcileCtx(ctx, st.Sys, []*muppet.Party{k1, i1}, muppet.Budget{})
		if !res.OK || len(res.Edits) == 0 {
			t.Fatalf("test setup: want a reconcile with edits, got OK=%v and %d edits", res.OK, len(res.Edits))
		}
		k1.Adopt(res.Instance)
		i1.Adopt(res.Instance)
		if k1.Describe() == k2Desc && i1.Describe() == i2Desc {
			t.Fatal("test setup: adopting the reconciled instance changed no configuration")
		}
		k1.Goals[0] = muppet.NamedGoal{Name: "replaced", Formula: i1.Goals[0].Formula}
		k1.Goals = append(k1.Goals, i1.Goals...)
		i1.Goals = append(i1.Goals, k2Goals...)

		k3, i3, err := st.FreshParties()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name            string
			goals, wantGoal []muppet.NamedGoal
			desc, wantDesc  string
		}{
			{"k8s", k2.Goals, k2Goals, k2.Describe(), k2Desc},
			{"istio", i2.Goals, i2Goals, i2.Describe(), i2Desc},
			{"fresh k8s", k3.Goals, k2Goals, k3.Describe(), k2Desc},
			{"fresh istio", i3.Goals, i2Goals, i3.Describe(), i2Desc},
		} {
			if !slices.Equal(p.goals, p.wantGoal) {
				t.Errorf("%s: goals changed by another party's edits", p.name)
			}
			if p.desc != p.wantDesc {
				t.Errorf("%s: configuration changed by another party's Adopt:\n%s", p.name, p.desc)
			}
		}
	})

	t.Run("struct-literal", func(t *testing.T) {
		lit, loaded := literalState(t, fig1Config()), loadFig1(t)
		lk, li, err := lit.FreshParties()
		if err != nil {
			t.Fatal(err)
		}
		k, i, err := loaded.FreshParties()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*muppet.Party{{lk, k}, {li, i}} {
			if fmt.Sprint(pair[0].Goals) != fmt.Sprint(pair[1].Goals) {
				t.Errorf("%s: struct-literal goals\n%v\nwant the loaded state's\n%v", pair[0].Name, pair[0].Goals, pair[1].Goals)
			}
		}
		for _, op := range Ops() {
			if got := execDirect(t, lit, Request{Op: op}); got != want[op] {
				t.Errorf("%s: struct-literal answer differs from the loaded state's:\n--- want ---\n%s\n--- got ---\n%s", op, want[op].Output, got.Output)
			}
		}

	})

	t.Run("bad-goal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "istio_goals.csv")
		if err := os.WriteFile(path, []byte("srcService,dstService,srcPort,dstPort\ntest-nosuch,test-db,14000,16000\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := fig1Config()
		cfg.IstioGoals = path
		if _, err := Load(cfg); err == nil || !strings.Contains(err.Error(), "test-nosuch") {
			t.Fatalf("Load with a goal naming an unknown service: err = %v, want one naming it", err)
		}

		// On a struct literal, such a goal fails every party build, the
		// same way each time.
		bad := literalState(t, fig1Config())
		bad.K8sGoalRows = append(slices.Clone(bad.K8sGoalRows), muppet.K8sGoal{Port: 4242})
		for i := 0; i < 2; i++ {
			if _, _, err := bad.FreshParties(); err == nil || !strings.Contains(err.Error(), "4242") {
				t.Fatalf("FreshParties with an uncompilable goal: err = %v, want one naming port 4242", err)
			}
		}
		if _, err := bad.FedParty("k8s"); err == nil {
			t.Fatal("FedParty with an uncompilable goal: want an error")
		}
		if _, err := bad.FedReplicas(); err == nil {
			t.Fatal("FedReplicas with an uncompilable goal: want an error")
		}
	})
}
