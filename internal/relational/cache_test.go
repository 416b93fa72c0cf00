package relational

import (
	"testing"
)

// cacheFixture builds a small session: one unary relation R and one binary
// relation E over three atoms, both free.
func cacheFixture(t *testing.T) (*Session, *Relation, *Relation) {
	t.Helper()
	u := u3()
	r := NewRelation("R", 1)
	e := NewRelation("E", 2)
	b := NewBounds(u)
	b.Bound(r, NewTupleSet(u, 1), AllTuples(u, 1))
	b.Bound(e, NewTupleSet(u, 2), AllTuples(u, 2))
	return NewSession(b), r, e
}

// mkFormula builds ∀x ∈ R · some (x.E) with fresh node pointers each call:
// structurally identical, pointer-distinct.
func mkFormula(r, e *Relation) Formula {
	x := NewVar("x")
	return Forall([]Decl{NewDecl(x, r)}, Some(Join(x, e)))
}

// TestTranslationCachePointerHit: grounding the same formula node twice
// is a structural hit; there is no separate identity layer.
func TestTranslationCachePointerHit(t *testing.T) {
	ss, r, e := cacheFixture(t)
	f := mkFormula(r, e)
	l1 := ss.Lit(f)
	l2 := ss.Lit(f)
	if l1 != l2 {
		t.Fatalf("same formula pointer gave different literals: %v vs %v", l1, l2)
	}
	st := ss.CacheStats()
	if st.StructHits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 structural hit and 1 miss", st)
	}
}

func TestTranslationCacheStructuralHit(t *testing.T) {
	ss, r, e := cacheFixture(t)
	l1 := ss.Lit(mkFormula(r, e))
	before := ss.CacheStats()
	l2 := ss.Lit(mkFormula(r, e)) // fresh pointers, same structure
	if l1 != l2 {
		t.Fatalf("structurally identical formulas gave different literals: %v vs %v", l1, l2)
	}
	st := ss.CacheStats()
	if st.StructHits != before.StructHits+1 {
		t.Fatalf("structural hits %d -> %d, want +1", before.StructHits, st.StructHits)
	}
	if st.Misses != before.Misses {
		t.Fatalf("misses grew on a structural hit: %d -> %d", before.Misses, st.Misses)
	}
	// A structural hit leaves the node memo alone; a third fresh build is
	// another structural hit, not a miss.
	l3 := ss.Lit(mkFormula(r, e))
	if l3 != l1 {
		t.Fatalf("third build differs: %v vs %v", l3, l1)
	}
	if got := ss.CacheStats().StructHits; got != before.StructHits+2 {
		t.Fatalf("structural hits = %d, want %d", got, before.StructHits+2)
	}
}

// TestStructuralHitsDoNotPinFormulas checks that a warm session's
// translator grows with new formula shapes, not with calls: a thousand
// structurally identical formulas, each built from fresh nodes, leave the
// translator's node memo as the first translation left it, so the
// caller's nodes are not kept alive by the session.
func TestStructuralHitsDoNotPinFormulas(t *testing.T) {
	ss, r, e := cacheFixture(t)
	first := ss.Lit(mkFormula(r, e))
	entries := len(ss.tr.formCache)
	for i := 1; i < 1000; i++ {
		if l := ss.Lit(mkFormula(r, e)); l != first {
			t.Fatalf("call %d: literal %v, want %v", i, l, first)
		}
		if n := len(ss.tr.formCache); n != entries {
			t.Fatalf("call %d: node memo grew from %d to %d entries", i, entries, n)
		}
	}
	if st := ss.CacheStats(); st.StructHits != 999 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 999 structural hits and 1 miss", st)
	}
}

// TestTranslationCacheDistinguishes checks near-miss structures do NOT
// collide in the translation cache: different quantifier kind, different
// connective, different bound variable wiring. Semantically distinct
// variants must yield distinct literals; semantically EQUIVALENT variants
// (a vacuous extra binder) may share a literal — such a merge can only
// come from circuit-level sharing below the cache, not from a cache hit,
// which StructHits staying at zero proves.
func TestTranslationCacheDistinguishes(t *testing.T) {
	ss, r, e := cacheFixture(t)
	x := NewVar("x")
	y := NewVar("y")
	distinct := []Formula{
		Forall([]Decl{NewDecl(x, r)}, Some(Join(x, e))),
		Exists([]Decl{NewDecl(x, r)}, Some(Join(x, e))),
		Forall([]Decl{NewDecl(x, r)}, No(Join(x, e))),
	}
	var lits []interface{}
	for i, f := range distinct {
		li := ss.Lit(f)
		for j, prev := range lits {
			if li == prev {
				t.Fatalf("variant %d collided with variant %d", i, j)
			}
		}
		lits = append(lits, li)
	}
	// ∀x,y∈R · φ(x) and ∀x,y∈R · φ(y) are both equivalent to
	// ∀x∈R · φ(x) (one binder is vacuous) while the cache sees distinct
	// structures, so each is only required not to collide with a
	// semantically distinct variant.
	equivalent := []Formula{
		Forall([]Decl{NewDecl(x, r), NewDecl(y, r)}, Some(Join(x, e))),
		Forall([]Decl{NewDecl(x, r), NewDecl(y, r)}, Some(Join(y, e))),
	}
	for i, f := range equivalent {
		if li := ss.Lit(f); li == lits[1] || li == lits[2] {
			t.Fatalf("equivalent variant %d collided with a semantically distinct one: %v", i, li)
		}
	}
	if st := ss.CacheStats(); st.StructHits != 0 {
		t.Fatalf("distinct structures produced structural hits: %+v", st)
	}
}

// TestTranslationCacheBoundVarScoping checks a bound variable's identity
// is positional: re-using the same *Var object in a second, structurally
// identical formula must still hit, and the binder must not leak past its
// scope.
func TestTranslationCacheBoundVarScoping(t *testing.T) {
	ss, r, e := cacheFixture(t)
	x := NewVar("x")
	f1 := Forall([]Decl{NewDecl(x, r)}, Some(Join(x, e)))
	// Same *Var object in an inner scope shadowing nothing: the key
	// depends on binding position, not the pointer.
	f2 := Forall([]Decl{NewDecl(x, r)}, Some(Join(x, e)))
	l1 := ss.Lit(f1)
	l2 := ss.Lit(f2)
	if l1 != l2 {
		t.Fatal("same-shape formulas with shared Var object must agree")
	}
	if st := ss.CacheStats(); st.StructHits != 1 {
		t.Fatalf("want 1 structural hit, got %+v", st)
	}
}

// TestTranslationCacheSolveEquivalence checks cached grounding changes
// nothing semantically: asserting via cache-hit literals solves the same
// as a fresh session.
func TestTranslationCacheSolveEquivalence(t *testing.T) {
	ss1, r1, e1 := cacheFixture(t)
	ss1.Assert(mkFormula(r1, e1))
	ss1.Assert(Some(r1))
	st1 := ss1.Solve()

	ss2, r2, e2 := cacheFixture(t)
	// Translate twice first (warming both caches), then assert.
	ss2.Lit(mkFormula(r2, e2))
	ss2.Assert(mkFormula(r2, e2))
	ss2.Assert(Some(r2))
	st2 := ss2.Solve()
	if st1 != st2 {
		t.Fatalf("cache-warmed session disagreed: %v vs %v", st1, st2)
	}
}
