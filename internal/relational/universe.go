// Package relational implements a bounded relational logic in the style of
// the Kodkod model finder: a finite universe of atoms, relations bounded
// above and below by tuple sets, a relational expression and first-order
// formula language, and a translator that grounds problems into boolean
// circuits (package boolcirc) for SAT solving.
//
// This package is the logical substrate that the Muppet paper builds on
// (Pardinus extends Kodkod; package target layers the target-oriented mode
// on top of the translation produced here). Formulas are pure values and
// can be inspected, substituted and simplified — which is exactly what
// envelope extraction (Alg. 3 of the paper) requires.
package relational

import (
	"fmt"
	"math"
	"strings"
)

// Universe is an ordered finite set of named atoms. Atom identity is the
// index; names are for display and lookup.
//
// Tuple sets pack a tuple into one uint64 key (see TupleSet), which reads
// the tuple's atoms by rank: an atom's rank is the position of its index,
// written in decimal, among all the universe's indices so written, so
// over twelve atoms 0 1 10 11 2 3 … 9 have ranks 0 … 11. rank and byRank
// are that map and its inverse.
type Universe struct {
	atoms []string
	index map[string]int
	// rank[a] is atom a's rank; rank[a:a+1:a+1] doubles as the key slice
	// of the singleton {(a)}, which the evaluator shares for a bound
	// variable.
	rank   []uint64
	byRank []int32 // byRank[r] is the atom of rank r
	// maxArity is the largest arity whose keys fit 64 bits: |U|^maxArity
	// ≤ 2^64 − 1.
	maxArity int
}

// NewUniverse builds a universe from distinct atom names.
func NewUniverse(atoms ...string) *Universe {
	u := &Universe{index: make(map[string]int, len(atoms))}
	for _, a := range atoms {
		if _, dup := u.index[a]; dup {
			panic(fmt.Sprintf("relational: duplicate atom %q", a))
		}
		u.index[a] = len(u.atoms)
		u.atoms = append(u.atoms, a)
	}
	n := len(u.atoms)
	u.rank = make([]uint64, n)
	u.byRank = make([]int32, 0, n)
	// Decimal strings sort as a preorder walk of the digit trie: 0, then
	// each of 1…9 followed by its extensions 10…19, 100…, in digit order.
	var walk func(a int)
	walk = func(a int) {
		if a >= n {
			return
		}
		u.rank[a] = uint64(len(u.byRank))
		u.byRank = append(u.byRank, int32(a))
		for d := 0; d < 10; d++ {
			walk(10*a + d)
		}
	}
	if n > 0 {
		u.byRank = append(u.byRank, 0)
	}
	for d := 1; d < 10; d++ {
		walk(d)
	}
	u.maxArity = math.MaxInt
	if n > 1 {
		u.maxArity = 0
		for rest := uint64(math.MaxUint64); rest >= uint64(n); rest /= uint64(n) {
			u.maxArity++
		}
	}
	return u
}

// Size returns the number of atoms.
func (u *Universe) Size() int { return len(u.atoms) }

// MaxArity returns the widest arity a tuple set over u can have: keys of
// wider tuples would not fit 64 bits.
func (u *Universe) MaxArity() int { return u.maxArity }

// Atom returns the name of atom i.
func (u *Universe) Atom(i int) string { return u.atoms[i] }

// Index returns the index of the named atom, or -1 if absent.
func (u *Universe) Index(name string) int {
	if i, ok := u.index[name]; ok {
		return i
	}
	return -1
}

// MustIndex is Index but panics on unknown atoms.
func (u *Universe) MustIndex(name string) int {
	i := u.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("relational: unknown atom %q", name))
	}
	return i
}

// Atoms returns a copy of the atom names in order.
func (u *Universe) Atoms() []string {
	out := make([]string, len(u.atoms))
	copy(out, u.atoms)
	return out
}

// Tuple is an ordered sequence of atom indices.
type Tuple []int

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the tuple against a universe as (a, b, …).
func (t Tuple) String(u *Universe) string {
	parts := make([]string, len(t))
	for i, a := range t {
		parts[i] = u.Atom(a)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
