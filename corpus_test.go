package muppet_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"muppet"
	"muppet/internal/server"
	tenantpool "muppet/internal/tenant"
	"muppet/internal/yamllite"
)

// corpusQuery is one query of a testdata/corpus case: the request, the
// exit code it must answer with, and the file holding its exact output.
type corpusQuery struct {
	req    server.Request
	code   int
	expect string
}

// loadCorpusQueries reads the queries of one testdata/corpus/<case>/case.yaml.
// The case's bundle, goals and offers are the tenant.yaml beside it.
func loadCorpusQueries(path string) ([]corpusQuery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v, err := yamllite.Parse(data)
	if err != nil {
		return nil, err
	}
	qv, _ := yamllite.Get(v, "queries")
	items, ok := yamllite.AsList(qv)
	if !ok || len(items) == 0 {
		return nil, fmt.Errorf("%s: queries must be a non-empty list", path)
	}
	var queries []corpusQuery
	for i, item := range items {
		q := corpusQuery{}
		if q.req.Op, err = yamllite.StringAt(item, "op"); err != nil {
			return nil, fmt.Errorf("%s: query %d: %w", path, i, err)
		}
		if q.expect, err = yamllite.StringAt(item, "expect"); err != nil {
			return nil, fmt.Errorf("%s: query %d: %w", path, i, err)
		}
		cv, _ := yamllite.Get(item, "code")
		code, ok := yamllite.AsInt(cv)
		if !ok {
			return nil, fmt.Errorf("%s: query %d: code must be an integer", path, i)
		}
		q.code = int(code)
		for key, dst := range map[string]*string{"party": &q.req.Party, "provider": &q.req.Provider} {
			if _, present := yamllite.Get(item, key); present {
				if *dst, err = yamllite.StringAt(item, key); err != nil {
					return nil, fmt.Errorf("%s: query %d: %w", path, i, err)
				}
			}
		}
		queries = append(queries, q)
	}
	return queries, nil
}

// TestCorpusGoldenOutputs replays every testdata/corpus case and compares
// each answer, byte for byte, with the output committed beside it. The
// expected files pin the rendered verdicts — adopted configurations,
// minimal edits and blame cores — so a solver or minimisation change that
// alters any answer fails here, not just one that alters a verdict. Each
// query runs on the CLI path (server.Load, then server.Exec with a nil
// cache) and then twice on one warm SolveCache shared by the case, so the
// warm-session path (encoder reuse, retractable caps) must agree too.
func TestCorpusGoldenOutputs(t *testing.T) {
	paths, err := filepath.Glob("testdata/corpus/*/case.yaml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus cases found (%v)", err)
	}
	ctx := context.Background()
	for _, path := range paths {
		dir := filepath.Dir(path)
		queries, err := loadCorpusQueries(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(dir), func(t *testing.T) {
			st, _, err := server.ManifestLoader(filepath.Join(dir, tenantpool.ManifestName))()
			if err != nil {
				t.Fatal(err)
			}
			warm := muppet.NewSolveCache()
			for _, q := range queries {
				want, err := os.ReadFile(filepath.Join(dir, q.expect))
				if err != nil {
					t.Fatal(err)
				}
				for _, surface := range []struct {
					name  string
					cache *muppet.SolveCache
				}{{"cold", nil}, {"warm-1", warm}, {"warm-2", warm}} {
					resp, err := server.Exec(ctx, st, surface.cache, q.req, muppet.Budget{})
					if err != nil {
						t.Fatalf("%s %s: %v", q.expect, surface.name, err)
					}
					if resp.Code != q.code || resp.Output != string(want) {
						t.Fatalf("%s (%s): got code %d, want %d\n--- got ---\n%s--- want ---\n%s",
							q.expect, surface.name, resp.Code, q.code, resp.Output, want)
					}
				}
			}
		})
	}
}
