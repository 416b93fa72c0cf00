package relational

import (
	"fmt"
	"slices"
	"strings"
)

// TupleSet is a set of equal-arity tuples over a universe, kept as one
// sorted, duplicate-free slice of packed keys. A tuple's key reads the
// ranks of its atoms (see Universe) as base-|U| digits, first column
// most significant, so ascending keys list the tuples in the order of
// their atom indices written in decimal and joined by commas: (1, 10)
// before (1, 2) before (10, 1). Tuples and String use that order, and so
// do the translator's variable numbering and every rendered answer.
// Membership bisects the keys, set operations merge them and a copy is
// one slice copy, as Kodkod keeps a tuple set as integer tuple indices.
type TupleSet struct {
	u     *Universe
	arity int
	keys  []uint64
}

// NewTupleSet creates an empty tuple set of the given arity. It panics
// when arity is below 1 or when |U|^arity does not fit 64 bits.
func NewTupleSet(u *Universe, arity int) *TupleSet {
	ts := emptySet(u, arity)
	return &ts
}

// emptySet is NewTupleSet by value.
func emptySet(u *Universe, arity int) TupleSet {
	if arity < 1 {
		panic("relational: tuple set arity must be ≥ 1")
	}
	if arity > u.maxArity {
		panic(fmt.Sprintf("relational: %d-ary tuples over %d atoms do not fit 64-bit keys", arity, u.Size()))
	}
	return TupleSet{u: u, arity: arity}
}

// TupleSetOf builds a tuple set from atom-name rows. All rows must share
// one arity.
func TupleSetOf(u *Universe, rows ...[]string) *TupleSet {
	if len(rows) == 0 {
		panic("relational: TupleSetOf needs at least one row; use NewTupleSet for empty sets")
	}
	ts := NewTupleSet(u, len(rows[0]))
	for _, row := range rows {
		ts.AddNames(row...)
	}
	return ts
}

// AllTuples returns the full arity-ary cross product of the universe.
func AllTuples(u *Universe, arity int) *TupleSet {
	ts := NewTupleSet(u, arity)
	n := pow(u.Size(), arity)
	ts.keys = make([]uint64, n)
	for k := range ts.keys {
		ts.keys[k] = uint64(k)
	}
	return ts
}

// pow returns n^e; NewTupleSet has checked that it fits.
func pow(n, e int) uint64 {
	p := uint64(1)
	for ; e > 0; e-- {
		p *= uint64(n)
	}
	return p
}

// pack returns t's key, and false when t has the wrong arity or names an
// atom outside the universe.
func (ts *TupleSet) pack(t Tuple) (uint64, bool) {
	if len(t) != ts.arity {
		return 0, false
	}
	n := len(ts.u.rank)
	var k uint64
	for _, a := range t {
		if a < 0 || a >= n {
			return 0, false
		}
		k = k*uint64(n) + ts.u.rank[a]
	}
	return k, true
}

// unpack writes the tuple of key k into t, whose length is the arity.
func (u *Universe) unpack(k uint64, t Tuple) {
	n := uint64(len(u.byRank))
	for i := len(t) - 1; i >= 0; i-- {
		t[i] = int(u.byRank[k%n])
		k /= n
	}
}

// Universe returns the backing universe.
func (ts *TupleSet) Universe() *Universe { return ts.u }

// Arity returns the tuple arity.
func (ts *TupleSet) Arity() int { return ts.arity }

// Len returns the number of tuples.
func (ts *TupleSet) Len() int { return len(ts.keys) }

// Add inserts t.
func (ts *TupleSet) Add(t Tuple) *TupleSet {
	if len(t) != ts.arity {
		panic(fmt.Sprintf("relational: arity mismatch: adding %d-tuple to %d-ary set", len(t), ts.arity))
	}
	k, ok := ts.pack(t)
	if !ok {
		for _, a := range t {
			if a < 0 || a >= ts.u.Size() {
				panic(fmt.Sprintf("relational: atom index %d out of universe", a))
			}
		}
	}
	if n := len(ts.keys); n == 0 || ts.keys[n-1] < k {
		ts.keys = append(ts.keys, k)
	} else if i, found := slices.BinarySearch(ts.keys, k); !found {
		ts.keys = slices.Insert(ts.keys, i, k)
	}
	return ts
}

// AddNames inserts a tuple given by atom names.
func (ts *TupleSet) AddNames(names ...string) *TupleSet {
	var buf [4]int
	t := Tuple(buf[:0])
	for _, n := range names {
		t = append(t, ts.u.MustIndex(n))
	}
	return ts.Add(t)
}

// Contains reports membership. A tuple of another arity, or one naming an
// atom outside the universe, is not a member.
func (ts *TupleSet) Contains(t Tuple) bool {
	k, ok := ts.pack(t)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(ts.keys, k)
	return found
}

// Remove deletes t if present.
func (ts *TupleSet) Remove(t Tuple) {
	k, ok := ts.pack(t)
	if !ok {
		return
	}
	if i, found := slices.BinarySearch(ts.keys, k); found {
		ts.keys = slices.Delete(ts.keys, i, i+1)
	}
}

// Tuples returns the tuples in key order (see TupleSet). The tuples share
// one backing array.
func (ts *TupleSet) Tuples() []Tuple {
	flat := make([]int, len(ts.keys)*ts.arity)
	out := make([]Tuple, len(ts.keys))
	for i, k := range ts.keys {
		t := Tuple(flat[i*ts.arity : (i+1)*ts.arity : (i+1)*ts.arity])
		ts.u.unpack(k, t)
		out[i] = t
	}
	return out
}

// Clone returns a deep copy.
func (ts *TupleSet) Clone() *TupleSet {
	return &TupleSet{u: ts.u, arity: ts.arity, keys: slices.Clone(ts.keys)}
}

// UnionWith adds all tuples of o.
func (ts *TupleSet) UnionWith(o *TupleSet) *TupleSet {
	if o.arity != ts.arity {
		panic("relational: union arity mismatch")
	}
	if len(o.keys) > 0 {
		ts.keys = union(ts.keys, o.keys)
	}
	return ts
}

// ContainsAll reports whether every tuple of o is in ts.
func (ts *TupleSet) ContainsAll(o *TupleSet) bool {
	if len(o.keys) == 0 {
		return true
	}
	if o.arity != ts.arity || len(o.keys) > len(ts.keys) {
		return false
	}
	rest := ts.keys
	for _, k := range o.keys {
		i, found := slices.BinarySearch(rest, k)
		if !found {
			return false
		}
		rest = rest[i+1:]
	}
	return true
}

// Equal reports set equality.
func (ts *TupleSet) Equal(o *TupleSet) bool {
	return ts.arity == o.arity && slices.Equal(ts.keys, o.keys)
}

// String renders the set as {(a, b), …}.
func (ts *TupleSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	t := make(Tuple, ts.arity)
	for i, k := range ts.keys {
		if i > 0 {
			b.WriteString(", ")
		}
		ts.u.unpack(k, t)
		b.WriteString(t.String(ts.u))
	}
	b.WriteByte('}')
	return b.String()
}

// filter returns the keys of a that are in b (in = true) or not in b
// (in = false). When it keeps all of a, or a prefix of it, it returns
// that part of a itself rather than a copy.
func filter(a, b []uint64, in bool) []uint64 {
	var out []uint64
	kept, dropped := 0, false
	rest := b
	for _, k := range a {
		i, found := slices.BinarySearch(rest, k)
		rest = rest[i:]
		switch {
		case found != in:
			dropped = true
		case !dropped:
			kept++
		default:
			if out == nil {
				out = append(make([]uint64, 0, len(a)), a[:kept]...)
			}
			out = append(out, k)
		}
	}
	if out == nil {
		return a[:kept:kept]
	}
	return out
}

// union returns the merge of two sorted key slices in a new slice.
func union(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Relation is a declared relation: a name and an arity. Its extent in any
// instance is constrained by Bounds. Relations are compared by identity.
type Relation struct {
	name  string
	arity int
}

// NewRelation declares a relation.
func NewRelation(name string, arity int) *Relation {
	if arity < 1 {
		panic("relational: relation arity must be ≥ 1")
	}
	return &Relation{name: name, arity: arity}
}

// Name returns the relation's declared name.
func (r *Relation) Name() string { return r.name }

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Bounds assigns every relation a lower bound (tuples that must be present)
// and an upper bound (tuples that may be present). The solver chooses an
// extent between the two for each relation.
type Bounds struct {
	u     *Universe
	order []*Relation
	lower map[*Relation]*TupleSet
	upper map[*Relation]*TupleSet
}

// NewBounds creates empty bounds over a universe.
func NewBounds(u *Universe) *Bounds {
	return &Bounds{
		u:     u,
		lower: make(map[*Relation]*TupleSet),
		upper: make(map[*Relation]*TupleSet),
	}
}

// Universe returns the bounds' universe.
func (b *Bounds) Universe() *Universe { return b.u }

// Bound sets lower and upper bounds for r. lower must be a subset of upper.
func (b *Bounds) Bound(r *Relation, lower, upper *TupleSet) {
	if lower.arity != r.arity || upper.arity != r.arity {
		panic(fmt.Sprintf("relational: bound arity mismatch for %s", r.name))
	}
	if !upper.ContainsAll(lower) {
		panic(fmt.Sprintf("relational: lower bound of %s not contained in upper bound", r.name))
	}
	if _, seen := b.lower[r]; !seen {
		b.order = append(b.order, r)
	}
	b.lower[r] = lower.Clone()
	b.upper[r] = upper.Clone()
}

// BoundExactly fixes r's extent to exactly ts.
func (b *Bounds) BoundExactly(r *Relation, ts *TupleSet) { b.Bound(r, ts, ts) }

// Lower returns r's lower bound (nil if unbound).
func (b *Bounds) Lower(r *Relation) *TupleSet { return b.lower[r] }

// Upper returns r's upper bound (nil if unbound).
func (b *Bounds) Upper(r *Relation) *TupleSet { return b.upper[r] }

// Relations returns the bound relations in declaration order.
func (b *Bounds) Relations() []*Relation {
	out := make([]*Relation, len(b.order))
	copy(out, b.order)
	return out
}

// Clone deep-copies the bounds.
func (b *Bounds) Clone() *Bounds {
	c := NewBounds(b.u)
	for _, r := range b.order {
		c.Bound(r, b.lower[r], b.upper[r])
	}
	return c
}
