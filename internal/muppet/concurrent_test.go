package muppet

import (
	"context"
	"fmt"
	"testing"

	"muppet/internal/encode"
	"muppet/internal/sat"
)

// TestConcurrentQueries hammers one shared encode.System from many
// goroutines, each owning its parties and SolveCache — the concurrency
// contract documented on encode.System, enforced by `go test -race`.
// Every warm reset classifies the parties' offers against the System's
// shared knob table, so each worker resets each of its two session
// shapes (check and reconcile) at least three times.
func TestConcurrentQueries(t *testing.T) {
	f := loadFixture(t)
	const workers, queriesPer = 8, 12

	err := FanOut(context.Background(), workers, workers, func(ctx context.Context, w int) error {
		// Build this worker's own parties inline: t.Fatal must not be
		// called off the test goroutine.
		k8sParty, _, err := NewK8sParty(f.sys, f.k8sCfg, encode.AllSoft(), f.k8sGoals)
		if err != nil {
			return err
		}
		istioParty, _, err := NewIstioParty(f.sys, f.istioCfg, encode.AllSoft(), f.istioRevised)
		if err != nil {
			return err
		}
		cache := NewSolveCache()
		for q := 0; q < queriesPer; q++ {
			switch q % 3 {
			case 0:
				res := cache.LocalConsistencyCtx(ctx, f.sys, k8sParty, []*Party{istioParty}, sat.Budget{})
				if !res.OK {
					return fmt.Errorf("worker %d query %d: inconsistent: %v", w, q, res.Feedback)
				}
			case 1:
				env, err := ComputeEnvelopeCtx(ctx, f.sys, istioParty, []*Party{k8sParty})
				if err != nil {
					return err
				}
				if env.Trivial() {
					return fmt.Errorf("worker %d query %d: trivial envelope", w, q)
				}
			case 2:
				res := cache.ReconcileCtx(ctx, f.sys, []*Party{k8sParty, istioParty}, sat.Budget{})
				if !res.OK {
					return fmt.Errorf("worker %d query %d: cannot reconcile: %v", w, q, res.Feedback)
				}
			}
		}
		if st := cache.Stats(); st.Sessions != 2 || st.Reuses < 6 {
			return fmt.Errorf("worker %d: %d sessions and %d reuses, want 2 shapes reset 3 times each", w, st.Sessions, st.Reuses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanOutCancellation checks the driver's error path: a failing task
// cancels the context handed to the remaining tasks and its error is
// returned.
func TestFanOutCancellation(t *testing.T) {
	boom := fmt.Errorf("boom")
	err := FanOut(context.Background(), 2, 50, func(ctx context.Context, i int) error {
		if i == 0 {
			return boom
		}
		return ctx.Err()
	})
	if err != boom {
		t.Fatalf("got %v, want the task error", err)
	}
}

// TestFanOutServesAll checks every index is served exactly once on the
// happy path.
func TestFanOutServesAll(t *testing.T) {
	const n = 100
	seen := make([]int32, n)
	err := FanOut(context.Background(), 7, n, func(ctx context.Context, i int) error {
		seen[i]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d served %d times", i, c)
		}
	}
}
