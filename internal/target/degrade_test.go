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
	ctx, cancel := context.WithCancel(context.Background())
	var firstDistance int
	res := Minimize(s, soft, Options{
		Context: ctx,
		OnStep: func(st Step) {
			if st.Solve == 1 {
				firstDistance = st.Distance
				cancel() // interrupt before the descent can run
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
	if res.Distance != firstDistance {
		t.Fatalf("distance: got %d, want first model's %d", res.Distance, firstDistance)
	}
}

func TestMinimizeExpiredDeadlineBeforeFirstModel(t *testing.T) {
	s, soft := chainProblem(6)
	res := Minimize(s, soft, Options{
		Budget: sat.Budget{Deadline: time.Now().Add(-time.Second)},
	})
	if res.Status != sat.Unknown {
		t.Fatalf("status: got %v, want UNKNOWN", res.Status)
	}
	if res.Model != nil || res.Optimal {
		t.Fatal("no model may be reported when the first probe never ran")
	}
	if res.Stats.Stop != StopDeadline {
		t.Fatalf("stop reason: got %v, want deadline", res.Stats.Stop)
	}
}

func TestMinimizeRunWideConflictBudget(t *testing.T) {
	// A one-conflict run budget cannot finish the descent on a chain
	// problem but must still return the first model.
	s, soft := chainProblem(12)
	res := Minimize(s, soft, Options{Budget: sat.Budget{MaxConflicts: 1}})
	if res.Status == sat.Unknown {
		t.Skip("first probe alone exhausted the budget")
	}
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
	res := Minimize(s, soft, Options{})
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
