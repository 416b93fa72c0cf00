package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"

	"muppet/internal/scenario"
	"muppet/internal/server"
)

// inTempDir runs the test from a fresh working directory, where the
// benchmark keeps its .bench_build scratch files.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWorkloadSmoke runs every workload end to end with a tiny op count,
// traced, and checks the result object carries every per-layer metric.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	inTempDir(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(context.Background(), options{
				workload: w.name, seed: 1, seconds: 1, trace: 1, maxOps: 3, setups: 1,
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			for _, m := range layerMetrics {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
		})
	}
}

// TestCheckerRejectsCorruptedOutput corrupts one byte of a served answer
// and of a reference: both must be reported as failures.
func TestCheckerRejectsCorruptedOutput(t *testing.T) {
	want := ref{Code: server.CodeSat, Output: "RECONCILED\n--- K8s configuration ---\n"}
	if err := checkResponse(want.Code, want.Output, want); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	corrupt := strings.Replace(want.Output, "K8s", "K9s", 1)
	if err := checkResponse(want.Code, corrupt, want); err == nil {
		t.Fatal("corrupted output accepted")
	}
	if err := checkResponse(server.CodeUnsat, want.Output, want); err == nil {
		t.Fatal("wrong verdict code accepted")
	}
}

// TestColdRunFailsOnCorruptedReference runs the cold workload against a
// reference with one flipped byte: every op on that query must count as
// failed and the run must not be correct.
func TestColdRunFailsOnCorruptedReference(t *testing.T) {
	inTempDir(t)
	ctx := context.Background()
	p, err := prepareCold(ctx, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := p.(*coldInputs)
	q := in.queries[in.seq[0]]
	b := []byte(q.ref.Output)
	b[len(b)/2] ^= 1
	q.ref.Output = string(b)
	inst := &coldInstance{in: in}
	w, _ := measure(inst, 0, 1, nil, []int{0})
	if w.attempted() != 1 || w.failed() != 1 {
		t.Fatalf("attempted %d failed %d, want the corrupted op to fail", w.attempted(), w.failed())
	}
	if e2e := endToEnd(w, 1, 1); e2e["error_frac"] != 1 {
		t.Fatalf("error_frac = %v, want 1", e2e["error_frac"])
	}
}

// TestEvaluatorRejectsViolatingConfig checks the independent goal checker
// on a configuration known to violate the goals: the scenario's current
// configuration admits every flow, so its port bans fail.
func TestEvaluatorRejectsViolatingConfig(t *testing.T) {
	sc := scenario.Generate(scenarioParams(6, 4))
	b := fromScenario(sc, false)
	f, err := b.write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := server.Load(f.Config)
	if err != nil {
		t.Fatal(err)
	}
	exposure := map[string][]int{}
	for _, s := range st.Sys.Mesh.Services {
		exposure[s.Name] = s.Ports
	}
	err = checkGoals(st.Sys, st.Bundle.K8s, st.Bundle.Istio, exposure, st.K8sGoalRows, st.IstioGoalRows)
	if err == nil || !strings.Contains(err.Error(), "k8s goal") {
		t.Fatalf("checkGoals = %v, want a violated k8s ban", err)
	}
	// Without the bans, the current configuration admits every goal flow.
	if err := checkGoals(st.Sys, st.Bundle.K8s, st.Bundle.Istio, exposure, nil, st.IstioGoalRows); err != nil {
		t.Fatalf("current configuration should meet the flow goals: %v", err)
	}
}
