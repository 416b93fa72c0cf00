package relational

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refSet is the map-backed tuple set that TupleSet replaced: each tuple is
// stored under its atom indices in decimal, comma-joined, and listed in
// the sorted order of those keys. It is the oracle TupleSet's order and
// set semantics are checked against.
type refSet struct {
	u     *Universe
	arity int
	m     map[string]Tuple
}

func refKey(t Tuple) string {
	var b strings.Builder
	for i, a := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(a))
	}
	return b.String()
}

func newRefSet(u *Universe, arity int) *refSet {
	return &refSet{u: u, arity: arity, m: make(map[string]Tuple)}
}

func (r *refSet) add(t Tuple) { r.m[refKey(t)] = append(Tuple(nil), t...) }

func (r *refSet) remove(t Tuple) { delete(r.m, refKey(t)) }

func (r *refSet) contains(t Tuple) bool {
	_, ok := r.m[refKey(t)]
	return ok
}

func (r *refSet) union(o *refSet) {
	for k, t := range o.m {
		r.m[k] = t
	}
}

func (r *refSet) containsAll(o *refSet) bool {
	for k := range o.m {
		if _, ok := r.m[k]; !ok {
			return false
		}
	}
	return true
}

func (r *refSet) equal(o *refSet) bool {
	return r.arity == o.arity && len(r.m) == len(o.m) && r.containsAll(o)
}

func (r *refSet) clone() *refSet {
	c := newRefSet(r.u, r.arity)
	c.union(r)
	return c
}

func (r *refSet) tuples() []Tuple {
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = r.m[k]
	}
	return out
}

func (r *refSet) String() string {
	parts := make([]string, 0, len(r.m))
	for _, t := range r.tuples() {
		parts = append(parts, t.String(r.u))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// pair is a TupleSet and its reference twin, mutated in step.
type pair struct {
	ts  *TupleSet
	ref *refSet
}

// randomTuple draws a tuple of the given arity over u's atoms.
func randomTuple(rng *rand.Rand, u *Universe, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = rng.Intn(u.Size())
	}
	return t
}

// checkPair compares every read of a TupleSet with its reference twin.
func checkPair(t *testing.T, what string, p pair) {
	t.Helper()
	got, want := p.ts.Tuples(), p.ref.tuples()
	if len(got) != len(want) || p.ts.Len() != len(want) {
		t.Fatalf("%s: %d tuples (Len %d), want %d", what, len(got), p.ts.Len(), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: tuple %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	if g, w := p.ts.String(), p.ref.String(); g != w {
		t.Fatalf("%s: String %s, want %s", what, g, w)
	}
}

// FuzzTupleSetMatchesReference drives a TupleSet and the map-backed
// reference through the same random Add, AddNames, Remove, UnionWith and
// clone-then-mutate steps over universes of 1–150 atoms (so atom indices
// cross 10 and 100, where key order departs from numeric order) and
// arities 1–3, and compares Tuples, String, Len, Contains (foreign atoms
// and wrong arities included), ContainsAll and Equal after every step.
func FuzzTupleSetMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*19), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, arity uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%150
		ar := 1 + int(arity)%3
		atoms := make([]string, n)
		for i := range atoms {
			atoms[i] = "a" + strconv.Itoa(i)
		}
		u := NewUniverse(atoms...)
		sets := []pair{{NewTupleSet(u, ar), newRefSet(u, ar)}, {NewTupleSet(u, ar), newRefSet(u, ar)}}
		for step := 0; step < 200; step++ {
			i := rng.Intn(len(sets))
			p := sets[i]
			switch rng.Intn(6) {
			case 0, 1:
				tp := randomTuple(rng, u, ar)
				p.ts.Add(tp)
				p.ref.add(tp)
			case 2:
				tp := randomTuple(rng, u, ar)
				names := make([]string, ar)
				for j, a := range tp {
					names[j] = u.Atom(a)
				}
				p.ts.AddNames(names...)
				p.ref.add(tp)
			case 3:
				// Remove a member half the time, else a random tuple.
				tp := randomTuple(rng, u, ar)
				if all := p.ref.tuples(); len(all) > 0 && rng.Intn(2) == 0 {
					tp = all[rng.Intn(len(all))]
				}
				p.ts.Remove(tp)
				p.ref.remove(tp)
			case 4:
				o := sets[rng.Intn(len(sets))]
				p.ts.UnionWith(o.ts)
				p.ref.union(o.ref)
			case 5:
				// Clone, then mutate the clone; the original must not move.
				c := pair{p.ts.Clone(), p.ref.clone()}
				tp := randomTuple(rng, u, ar)
				c.ts.Add(tp)
				c.ref.add(tp)
				if len(sets) < 4 {
					sets = append(sets, c)
				}
			}
			for j, q := range sets {
				checkPair(t, "set "+strconv.Itoa(j)+" after step "+strconv.Itoa(step), q)
			}
			for k := 0; k < 4; k++ {
				tp := randomTuple(rng, u, ar)
				if got, want := p.ts.Contains(tp), p.ref.contains(tp); got != want {
					t.Fatalf("Contains(%v) = %v, want %v", tp, got, want)
				}
			}
			foreign := randomTuple(rng, u, ar)
			foreign[rng.Intn(ar)] = n + rng.Intn(3)
			if rng.Intn(2) == 0 {
				foreign[0] = -1
			}
			if p.ts.Contains(foreign) {
				t.Fatalf("Contains(%v) over %d atoms = true", foreign, n)
			}
			if p.ts.Contains(randomTuple(rng, u, ar%3+1)) {
				t.Fatalf("Contains of a %d-tuple in a %d-ary set = true", ar%3+1, ar)
			}
			o := sets[rng.Intn(len(sets))]
			if got, want := p.ts.ContainsAll(o.ts), p.ref.containsAll(o.ref); got != want {
				t.Fatalf("ContainsAll = %v, want %v", got, want)
			}
			if got, want := p.ts.Equal(o.ts), p.ref.equal(o.ref); got != want {
				t.Fatalf("Equal = %v, want %v", got, want)
			}
		}
	})
}

// TestTupleSetKeySpacePanics checks that NewTupleSet refuses an arity
// whose keys would not fit 64 bits, and accepts the widest that does.
func TestTupleSetKeySpacePanics(t *testing.T) {
	atoms := make([]string, 121)
	for i := range atoms {
		atoms[i] = "a" + strconv.Itoa(i)
	}
	u := NewUniverse(atoms...)
	NewTupleSet(u, 9) // 121^9 < 2^64
	defer func() {
		if recover() == nil {
			t.Fatal("NewTupleSet(121 atoms, arity 10) did not panic")
		}
	}()
	NewTupleSet(u, 10) // 121^10 > 2^64
}
