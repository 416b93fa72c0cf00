package target

import (
	"math/rand"
	"testing"

	"muppet/internal/sat"
)

// softProjection reports, per soft literal, whether the model satisfies it.
func softProjection(model []bool, soft []sat.Lit) []bool {
	out := make([]bool, len(soft))
	for i, l := range soft {
		out[i] = model[l.Var()] != l.Neg()
	}
	return out
}

// lexBetter reports whether a is lexicographically preferred over b:
// at the first differing position, the projection satisfying its soft
// literal wins.
func lexBetter(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i]
		}
	}
	return false
}

// bruteForceLex enumerates every assignment and returns the soft
// projection of the lexicographically-preferred minimal-distance model,
// or ok=false when the clause set (with the assumptions) is
// unsatisfiable.
func (in *instance) bruteForceLex() (best []bool, ok bool) {
	bestDist := in.nVars + len(in.soft) + 1
	for m := 0; m < 1<<uint(in.nVars); m++ {
		val, satisfied := in.eval(m)
		if !satisfied {
			continue
		}
		ok = true
		proj := make([]bool, len(in.soft))
		d := 0
		for i, l := range in.soft {
			proj[i] = val(l)
			if !proj[i] {
				d++
			}
		}
		switch {
		case d < bestDist:
			bestDist, best = d, proj
		case d == bestDist && lexBetter(proj, best):
			best = proj
		}
	}
	return best, ok
}

func sameBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCanonicalMatchesBruteForceLex checks that Options.Canonical returns
// exactly the lexicographically-preferred minimal model — the property
// that makes results independent of solver heuristic state — against
// brute-force enumeration, under both search strategies.
func TestCanonicalMatchesBruteForceLex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng)
		if len(in.soft) == 0 {
			continue
		}
		want, ok := in.bruteForceLex()
		if !ok {
			continue
		}
		for _, st := range []Strategy{StrategyLinear, StrategyBinary} {
			r := Minimize(in.solver(), in.soft, Options{
				Strategy: st, Retractable: true, Canonical: true,
			})
			if r.Status != sat.Sat || !r.Optimal {
				t.Fatalf("trial %d %v: status %v optimal %v", trial, st, r.Status, r.Optimal)
			}
			got := softProjection(r.Model, in.soft)
			if !sameBools(got, want) {
				t.Fatalf("trial %d %v: canonical projection %v, brute-force lex %v",
					trial, st, got, want)
			}
		}
	}
}

// TestCanonicalWarmEqualsCold pins the idempotence guarantee the
// mediation daemon builds on: repeated canonical Minimize runs on one
// long-lived solver session (accumulating learnt clauses and heuristic
// state) return the same soft projection as a cold run, every time.
func TestCanonicalWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(rng)
		if len(in.soft) == 0 {
			continue
		}
		if _, ok := in.bruteForce(); !ok {
			continue
		}
		cold := Minimize(in.solver(), in.soft, Options{Retractable: true, Canonical: true})
		want := softProjection(cold.Model, in.soft)

		s := in.solver()
		enc := NewEncoderCache()
		for round := 0; round < 4; round++ {
			r := Minimize(s, in.soft, Options{Retractable: true, Canonical: true, Encoder: enc})
			if r.Status != sat.Sat {
				t.Fatalf("trial %d round %d: status %v", trial, round, r.Status)
			}
			if got := softProjection(r.Model, in.soft); !sameBools(got, want) {
				t.Fatalf("trial %d round %d: warm projection %v, cold %v", trial, round, got, want)
			}
			if r.Distance != cold.Distance {
				t.Fatalf("trial %d round %d: warm distance %d, cold %d", trial, round, r.Distance, cold.Distance)
			}
		}
	}
}
