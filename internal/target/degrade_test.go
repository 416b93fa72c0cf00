package target

import (
	"context"
	"testing"
	"time"

	"muppet/internal/sat"
)

// chainProblem builds a solver over n variables with clauses (¬x_i ∨ ¬x_{i+1})
// and soft targets wanting every variable true: the minimum distance is
// ⌊n/2⌋, reached only after several descent steps.
func chainProblem(n int) (*sat.Solver, []sat.Lit) {
	s := sat.New()
	vars := make([]sat.Var, n)
	soft := make([]sat.Lit, n)
	for i := range vars {
		vars[i] = s.NewVar()
		soft[i] = sat.PosLit(vars[i])
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(sat.NegLit(vars[i]), sat.NegLit(vars[i+1]))
	}
	return s, soft
}

func TestMinimizeCancelledMidDescentKeepsBestModel(t *testing.T) {
	s, soft := chainProblem(10)
	if s.Solve() != sat.Sat {
		t.Fatal("the chain must be satisfiable")
	}
	first := s.Model()
	ctx, cancel := context.WithCancel(context.Background())
	res := Minimize(s, soft, Options{
		Context: ctx,
		OnStep: func(st Step) {
			if st.Solve == 1 {
				cancel() // interrupt after the first relaxation probe
			}
		},
	})
	if res.Status != sat.Sat {
		t.Fatalf("status: got %v, want SAT (best-so-far)", res.Status)
	}
	if res.Model == nil {
		t.Fatal("cancelled run must keep the best model found so far")
	}
	if res.Optimal {
		t.Fatal("cancelled run must not claim optimality")
	}
	if res.Stats.Stop != StopCancelled {
		t.Fatalf("stop reason: got %v, want cancelled", res.Stats.Stop)
	}
	if res.Distance != distance(first, soft) || !sameBools(res.Model, first) {
		t.Fatalf("distance: got %d, want the caller's first model at %d", res.Distance, distance(first, soft))
	}
}

// TestMinimizeExpiredDeadlineBeforeFirstModel: a deadline that expired
// before Minimize starts stops its first probe, and the run returns the
// caller's model, not proved optimal.
func TestMinimizeExpiredDeadlineBeforeFirstModel(t *testing.T) {
	s, soft := chainProblem(6)
	if s.Solve() != sat.Sat {
		t.Fatal("the chain must be satisfiable")
	}
	first := s.Model()
	res := Minimize(s, soft, Options{
		Budget: sat.Budget{Deadline: time.Now().Add(-time.Second)},
	})
	if res.Status != sat.Sat || res.Optimal {
		t.Fatalf("status %v optimal %v, want SAT, not optimal", res.Status, res.Optimal)
	}
	if !sameBools(res.Model, first) || res.Distance != distance(first, soft) {
		t.Fatalf("got a model at distance %d, want the caller's at %d", res.Distance, distance(first, soft))
	}
	if res.Stats.Stop != StopDeadline {
		t.Fatalf("stop reason: got %v, want deadline", res.Stats.Stop)
	}
}

func TestMinimizeRunWideConflictBudget(t *testing.T) {
	// A one-conflict run budget cannot finish the descent on a chain
	// problem but must still return a model.
	s, soft := chainProblem(12)
	res := solveThenMinimize(s, soft, Options{Budget: sat.Budget{MaxConflicts: 1}})
	if res.Optimal {
		// With such a tiny budget the descent cannot have completed
		// unless the very first model was already optimal.
		if res.Stats.Stop != StopNone {
			t.Fatalf("optimal result must have StopNone, got %v", res.Stats.Stop)
		}
		return
	}
	if res.Stats.Stop != StopConflicts {
		t.Fatalf("stop reason: got %v, want conflict budget", res.Stats.Stop)
	}
	if res.Model == nil {
		t.Fatal("interrupted descent must keep the best model")
	}
}

func TestMinimizeUnbudgetedStillOptimal(t *testing.T) {
	s, soft := chainProblem(9)
	res := solveThenMinimize(s, soft, Options{})
	if res.Status != sat.Sat || !res.Optimal {
		t.Fatalf("unbudgeted run must complete: %+v", res)
	}
	if res.Stats.Stop != StopNone {
		t.Fatalf("completed run must have StopNone, got %v", res.Stats.Stop)
	}
	if want := 9 / 2; res.Distance != want {
		t.Fatalf("distance: got %d, want %d", res.Distance, want)
	}
}
