package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"muppet/internal/mesh"
	"muppet/internal/scenario"
	"muppet/internal/server"
)

// readTree returns every file under dir by its path relative to dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// generated is everything one seed determines: the written input files
// and every op sequence, rendered as strings.
func generated(t *testing.T, seed int64) (map[string]string, []string) {
	t.Helper()
	dir := t.TempDir()
	cold, err := genCold(seed, filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	serve, err := genServe(seed, filepath.Join(dir, "serve"))
	if err != nil {
		t.Fatal(err)
	}
	revise, err := genRevise(seed, filepath.Join(dir, "revise"))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []string
	for _, qi := range cold.seq {
		seqs = append(seqs, cold.queries[qi].name)
	}
	for c, seq := range serve.seq {
		for _, s := range seq {
			seqs = append(seqs, fmt.Sprintf("%d:%s/%d", c, s.t.id, s.op))
		}
	}
	for _, t := range revise.tenants {
		for _, s := range t.states {
			seqs = append(seqs, t.id+": "+s.edit)
		}
		seqs = append(seqs, fmt.Sprint(t.walks))
	}
	return readTree(t, dir), seqs
}

func TestGeneratorDeterminism(t *testing.T) {
	filesA, seqA := generated(t, 5)
	filesB, seqB := generated(t, 5)
	if len(filesA) == 0 {
		t.Fatal("no files generated")
	}
	if !reflect.DeepEqual(filesA, filesB) {
		for name, a := range filesA {
			if filesB[name] != a {
				t.Errorf("%s differs between two generations with the same seed", name)
			}
		}
		t.Fatalf("input files differ: %d vs %d files", len(filesA), len(filesB))
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("op or revision sequences differ between two generations with the same seed")
	}
	filesC, seqC := generated(t, 6)
	if reflect.DeepEqual(filesA, filesC) || reflect.DeepEqual(seqA, seqC) {
		t.Fatal("different seeds generated identical inputs")
	}
}

// TestWrittenBundleLoadsBack checks the YAML and CSV writers: loading the
// written files yields the generated mesh, configurations and goals.
func TestWrittenBundleLoadsBack(t *testing.T) {
	sc := scenario.Generate(scenarioParams(6, 3))
	for _, strict := range []bool{false, true} {
		b := fromScenario(sc, strict)
		f, err := b.write(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st, err := server.Load(f.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Bundle.Mesh.Services, b.Mesh.Services) {
			t.Errorf("strict=%v: services differ after load", strict)
		}
		if got, want := mesh.DescribeK8s(st.Bundle.K8s), mesh.DescribeK8s(b.K8s); got != want {
			t.Errorf("strict=%v: k8s config %q, want %q", strict, got, want)
		}
		if got, want := mesh.DescribeIstio(st.Bundle.Istio), mesh.DescribeIstio(b.Istio); got != want {
			t.Errorf("strict=%v: istio config %q, want %q", strict, got, want)
		}
		if fmt.Sprint(st.K8sGoalRows) != fmt.Sprint(b.K8sGoals) || fmt.Sprint(st.IstioGoalRows) != fmt.Sprint(b.IstioGoals) {
			t.Errorf("strict=%v: goal rows differ after load", strict)
		}
		man, _, err := server.ManifestLoader(f.Manifest)()
		if err != nil {
			t.Fatalf("strict=%v: manifest: %v", strict, err)
		}
		if !reflect.DeepEqual(man.Sys.Universe.Atoms(), st.Sys.Universe.Atoms()) {
			t.Errorf("strict=%v: the manifest and the flag config build different systems", strict)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
