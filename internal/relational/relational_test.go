package relational

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"muppet/internal/boolcirc"
	"muppet/internal/sat"
)

func u3() *Universe { return NewUniverse("a", "b", "c") }

func TestUniverse(t *testing.T) {
	u := u3()
	if u.Size() != 3 {
		t.Fatalf("size %d", u.Size())
	}
	if u.Atom(1) != "b" || u.Index("c") != 2 || u.Index("zz") != -1 {
		t.Fatal("atom lookup broken")
	}
	atoms := u.Atoms()
	atoms[0] = "mutated"
	if u.Atom(0) != "a" {
		t.Fatal("Atoms() must return a copy")
	}
}

func TestUniverseDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate atom")
		}
	}()
	NewUniverse("a", "a")
}

func TestTupleSetBasics(t *testing.T) {
	u := u3()
	ts := NewTupleSet(u, 2)
	ts.AddNames("a", "b").AddNames("b", "c")
	if ts.Len() != 2 || !ts.Contains(Tuple{0, 1}) || ts.Contains(Tuple{0, 0}) {
		t.Fatal("basic membership broken")
	}
	clone := ts.Clone()
	clone.AddNames("a", "a")
	if ts.Len() != 2 || clone.Len() != 3 {
		t.Fatal("clone aliasing")
	}
	ts.Remove(Tuple{0, 1})
	if ts.Contains(Tuple{0, 1}) {
		t.Fatal("remove failed")
	}
	all := AllTuples(u, 2)
	if all.Len() != 9 {
		t.Fatalf("AllTuples(2) = %d tuples", all.Len())
	}
	if !all.ContainsAll(clone) {
		t.Fatal("full set should contain everything")
	}
}

// TestTupleSetDeterministicOrder checks Tuples' order past ten atoms,
// where it differs from numeric order: (1, 10) before (1, 2).
func TestTupleSetDeterministicOrder(t *testing.T) {
	atoms := make([]string, 12)
	for i := range atoms {
		atoms[i] = "a" + strconv.Itoa(i)
	}
	u := NewUniverse(atoms...)
	ts := NewTupleSet(u, 2)
	for _, p := range [][2]int{{2, 0}, {1, 2}, {10, 1}, {1, 10}, {1, 1}, {11, 0}, {3, 0}} {
		ts.Add(Tuple{p[0], p[1]})
	}
	want := "{(a1, a1), (a1, a10), (a1, a2), (a10, a1), (a11, a0), (a2, a0), (a3, a0)}"
	if got := ts.String(); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	tuples := ts.Tuples()
	for i := 1; i < len(tuples); i++ {
		if refKey(tuples[i-1]) >= refKey(tuples[i]) {
			t.Fatalf("tuples %v, %v out of key order", tuples[i-1], tuples[i])
		}
	}
}

func TestBoundsValidation(t *testing.T) {
	u := u3()
	r := NewRelation("R", 1)
	b := NewBounds(u)
	lower := NewTupleSet(u, 1).AddNames("a")
	upper := NewTupleSet(u, 1).AddNames("a").AddNames("b")
	b.Bound(r, lower, upper)
	if !b.Lower(r).Contains(Tuple{0}) || b.Upper(r).Len() != 2 {
		t.Fatal("bounds not stored")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when lower ⊄ upper")
		}
	}()
	b.Bound(r, upper, lower)
}

// fig-1-like fixture: two unary relations and one binary relation.
type fixture struct {
	u       *Universe
	s, p    *Relation // unary "services", unary "ports"
	link    *Relation // binary
	bounds  *Bounds
	sTuples *TupleSet
}

func newFixture() *fixture {
	u := NewUniverse("s1", "s2", "s3", "p1", "p2")
	f := &fixture{
		u:    u,
		s:    NewRelation("Service", 1),
		p:    NewRelation("Port", 1),
		link: NewRelation("link", 2),
	}
	f.bounds = NewBounds(u)
	f.sTuples = TupleSetOf(u, []string{"s1"}, []string{"s2"}, []string{"s3"})
	f.bounds.BoundExactly(f.s, f.sTuples)
	f.bounds.BoundExactly(f.p, TupleSetOf(u, []string{"p1"}, []string{"p2"}))
	linkUpper := NewTupleSet(u, 2)
	for _, src := range []string{"s1", "s2", "s3"} {
		for _, dst := range []string{"s1", "s2", "s3"} {
			linkUpper.AddNames(src, dst)
		}
	}
	f.bounds.Bound(f.link, NewTupleSet(u, 2), linkUpper)
	return f
}

func TestSolveSimpleSat(t *testing.T) {
	f := newFixture()
	// Some link from s1.
	x := NewVar("x")
	goal := Exists([]Decl{NewDecl(x, f.s)}, Some(Join(ConstAtom(f.u, "s1"), f.link)))
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if !Eval(goal, inst) {
		t.Fatal("extracted instance does not satisfy formula")
	}
	if EvalExpr(Join(ConstAtom(f.u, "s1"), f.link), inst).Len() == 0 {
		t.Fatal("s1 should have an outgoing link")
	}
}

func TestSolveUnsat(t *testing.T) {
	f := newFixture()
	// link must be both empty and non-empty.
	goal := And(No(f.link), Some(f.link))
	_, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestForallSemantics(t *testing.T) {
	f := newFixture()
	x := NewVar("x")
	y := NewVar("y")
	// Every pair of services is linked: forces the full 3x3 relation.
	goal := Forall([]Decl{NewDecl(x, f.s), NewDecl(y, f.s)},
		In(Product(x, y), f.link))
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if inst.Get(f.link).Len() != 9 {
		t.Fatalf("link should be full, got %d tuples", inst.Get(f.link).Len())
	}
}

func TestOneMultiplicity(t *testing.T) {
	f := newFixture()
	goal := One(f.link)
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if inst.Get(f.link).Len() != 1 {
		t.Fatalf("want exactly one tuple, got %d", inst.Get(f.link).Len())
	}
}

func TestLoneAndNo(t *testing.T) {
	f := newFixture()
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: And(Lone(f.link), Some(f.link))})
	if st != sat.Sat || inst.Get(f.link).Len() != 1 {
		t.Fatalf("lone∧some: st=%v len=%d", st, inst.Get(f.link).Len())
	}
	inst, st = Solve(Problem{Bounds: f.bounds, Formula: No(f.link)})
	if st != sat.Sat || inst.Get(f.link).Len() != 0 {
		t.Fatalf("no: st=%v len=%d", st, inst.Get(f.link).Len())
	}
}

func TestTransposeSemantics(t *testing.T) {
	f := newFixture()
	// link symmetric and non-empty.
	goal := And(Equals(f.link, Transpose(f.link)), Some(f.link))
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	ts := inst.Get(f.link)
	for _, tp := range ts.Tuples() {
		if !ts.Contains(Tuple{tp[1], tp[0]}) {
			t.Fatalf("instance not symmetric: %v", tp)
		}
	}
}

func TestJoinEvaluator(t *testing.T) {
	u := NewUniverse("a", "b", "c")
	r := NewRelation("R", 2)
	inst := NewInstance(u)
	inst.Set(r, TupleSetOf(u, []string{"a", "b"}, []string{"b", "c"}))
	// a.R = {b}; a.R.R = {c}
	got := EvalExpr(Join(ConstAtom(u, "a"), r), inst)
	if got.Len() != 1 || !got.Contains(Tuple{1}) {
		t.Fatalf("a.R = %v", got)
	}
	got = EvalExpr(Join(Join(ConstAtom(u, "a"), r), r), inst)
	if got.Len() != 1 || !got.Contains(Tuple{2}) {
		t.Fatalf("a.R.R = %v", got)
	}
	// R.R = {(a,c)}
	got = EvalExpr(Join(r, r), inst)
	if got.Len() != 1 || !got.Contains(Tuple{0, 2}) {
		t.Fatalf("R.R = %v", got)
	}
}

func TestComprehension(t *testing.T) {
	f := newFixture()
	x := NewVar("x")
	// {x: Service | some x.link} — sources with at least one outgoing link.
	sources := Comprehension([]Decl{NewDecl(x, f.s)}, Some(Join(x, f.link)))
	goal := And(
		Equals(sources, Const(NewTupleSet(f.u, 1).AddNames("s2"))),
		Some(f.link),
	)
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	for _, tp := range inst.Get(f.link).Tuples() {
		if f.u.Atom(tp[0]) != "s2" {
			t.Fatalf("only s2 may have outgoing links, got %v", tp.String(f.u))
		}
	}
}

func TestNestedQuantifierDependentDomain(t *testing.T) {
	f := newFixture()
	x := NewVar("x")
	y := NewVar("y")
	// ∀x: Service | ∀y: x.link | y in Service — trivially true over bounds.
	goal := Forall([]Decl{NewDecl(x, f.s)},
		Forall([]Decl{NewDecl(y, Join(x, f.link))}, In(y, f.s)))
	_, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
}

// --- randomised differential testing: translator vs evaluator ---

type randProblem struct {
	u     *Universe
	atoms []int // the atoms that bounds and constants draw from
	rels  []*Relation
	b     *Bounds
	freeN int
}

// randomBounds draws a problem over 3–4 atoms or, one time in four, over
// 11–13 atoms of which only 1, 2, 10 and sometimes 11 are used. Past ten
// atoms a tuple set's key order ("1,10" before "1,2") is not index order,
// which the evaluator's joins, transposes and products must respect.
func randomBounds(rng *rand.Rand) *randProblem {
	n := 3 + rng.Intn(2)
	active := []int{0, 1, 2, 3}[:n]
	if rng.Intn(4) == 0 {
		active = []int{1, 2, 10, 11}[:n]
		n = active[len(active)-1] + 1 + rng.Intn(2)
	}
	atoms := make([]string, n)
	for i := range atoms {
		atoms[i] = string(rune('a' + i))
	}
	u := NewUniverse(atoms...)
	rp := &randProblem{u: u, atoms: active, b: NewBounds(u)}
	nRel := 2 + rng.Intn(2)
	for i := 0; i < nRel; i++ {
		arity := 1 + rng.Intn(2)
		r := NewRelation(string(rune('R'+i)), arity)
		lower := NewTupleSet(u, arity)
		upper := NewTupleSet(u, arity)
		for _, t := range rp.tuples(arity) {
			switch rng.Intn(4) {
			case 0: // in both: fixed present
				lower.Add(t)
				upper.Add(t)
			case 1, 2: // free
				upper.Add(t)
				rp.freeN++
			}
		}
		rp.b.Bound(r, lower, upper)
		rp.rels = append(rp.rels, r)
	}
	return rp
}

// tuples lists every arity-ary tuple over rp's atoms.
func (rp *randProblem) tuples(arity int) []Tuple {
	ts := NewTupleSet(rp.u, arity)
	t := make(Tuple, arity)
	var rec func(i int)
	rec = func(i int) {
		if i == arity {
			ts.Add(t)
			return
		}
		for _, a := range rp.atoms {
			t[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return ts.Tuples()
}

func randomExpr(rng *rand.Rand, rp *randProblem, vars []*Var, arity, depth int) Expr {
	if depth == 0 {
		// Leaf: relation of right arity, var (arity 1), or constant.
		var leaves []Expr
		for _, r := range rp.rels {
			if r.arity == arity {
				leaves = append(leaves, r)
			}
		}
		if arity == 1 {
			for _, v := range vars {
				leaves = append(leaves, v)
			}
		}
		ts := NewTupleSet(rp.u, arity)
		for _, t := range rp.tuples(arity) {
			if rng.Intn(3) == 0 {
				ts.Add(t)
			}
		}
		leaves = append(leaves, Const(ts))
		return leaves[rng.Intn(len(leaves))]
	}
	switch rng.Intn(8) {
	case 0:
		return Union(randomExpr(rng, rp, vars, arity, depth-1), randomExpr(rng, rp, vars, arity, depth-1))
	case 1:
		return Intersect(randomExpr(rng, rp, vars, arity, depth-1), randomExpr(rng, rp, vars, arity, depth-1))
	case 2:
		return Diff(randomExpr(rng, rp, vars, arity, depth-1), randomExpr(rng, rp, vars, arity, depth-1))
	case 3:
		if arity == 2 {
			return Product(randomExpr(rng, rp, vars, 1, depth-1), randomExpr(rng, rp, vars, 1, depth-1))
		}
		return Join(randomExpr(rng, rp, vars, 2, depth-1), randomExpr(rng, rp, vars, 1, depth-1))
	case 4:
		if arity == 2 {
			return Transpose(randomExpr(rng, rp, vars, 2, depth-1))
		}
		return Join(randomExpr(rng, rp, vars, 1, depth-1), randomExpr(rng, rp, vars, 2, depth-1))
	case 5:
		if arity == 2 {
			return Join(randomExpr(rng, rp, vars, 2, depth-1), randomExpr(rng, rp, vars, 2, depth-1))
		}
		return randomExpr(rng, rp, vars, arity, 0)
	case 6:
		// One declaration per column; a later domain may mention an
		// earlier variable.
		decls := make([]Decl, arity)
		for i := range decls {
			v := NewVar("v" + string(rune('0'+len(vars))))
			decls[i] = NewDecl(v, randomExpr(rng, rp, vars, 1, depth-1))
			vars = append(vars, v)
		}
		return Comprehension(decls, randomLeafFormula(rng, rp, vars, depth-1))
	default:
		return randomExpr(rng, rp, vars, arity, 0)
	}
}

// randomLeafFormula compares or counts expressions of the given depth.
func randomLeafFormula(rng *rand.Rand, rp *randProblem, vars []*Var, exprDepth int) Formula {
	arity := 1 + rng.Intn(2)
	e := randomExpr(rng, rp, vars, arity, exprDepth)
	switch rng.Intn(6) {
	case 0:
		return In(e, randomExpr(rng, rp, vars, arity, exprDepth))
	case 1:
		return Equals(e, randomExpr(rng, rp, vars, arity, exprDepth))
	case 2:
		return Some(e)
	case 3:
		return One(e)
	case 4:
		return Lone(e)
	default:
		return No(e)
	}
}

func randomFormula(rng *rand.Rand, rp *randProblem, vars []*Var, depth int) Formula {
	if depth == 0 {
		return randomLeafFormula(rng, rp, vars, 1)
	}
	switch rng.Intn(8) {
	case 0:
		return And(randomFormula(rng, rp, vars, depth-1), randomFormula(rng, rp, vars, depth-1))
	case 1:
		return Or(randomFormula(rng, rp, vars, depth-1), randomFormula(rng, rp, vars, depth-1))
	case 2:
		return Not(randomFormula(rng, rp, vars, depth-1))
	case 3:
		return Implies(randomFormula(rng, rp, vars, depth-1), randomFormula(rng, rp, vars, depth-1))
	case 4:
		v := NewVar("v" + string(rune('0'+len(vars))))
		return Forall([]Decl{NewDecl(v, randomExpr(rng, rp, vars, 1, 1))},
			randomFormula(rng, rp, append(vars, v), depth-1))
	case 5:
		v := NewVar("v" + string(rune('0'+len(vars))))
		return Exists([]Decl{NewDecl(v, randomExpr(rng, rp, vars, 1, 1))},
			randomFormula(rng, rp, append(vars, v), depth-1))
	case 6:
		return Iff(randomFormula(rng, rp, vars, depth-1), randomFormula(rng, rp, vars, depth-1))
	default:
		return randomFormula(rng, rp, vars, 0)
	}
}

// enumerateInstances calls fn with every instance within bounds; returns
// early if fn returns true. Only usable when the free-tuple count is small.
func enumerateInstances(b *Bounds, fn func(*Instance) bool) bool {
	type freeTuple struct {
		r *Relation
		t Tuple
	}
	var free []freeTuple
	for _, r := range b.Relations() {
		lower := b.Lower(r)
		for _, t := range b.Upper(r).Tuples() {
			if !lower.Contains(t) {
				free = append(free, freeTuple{r, t})
			}
		}
	}
	for mask := 0; mask < 1<<len(free); mask++ {
		inst := NewInstance(b.Universe())
		for _, r := range b.Relations() {
			inst.Set(r, b.Lower(r))
		}
		for i, ft := range free {
			if mask>>i&1 == 1 {
				inst.Get(ft.r).Add(ft.t) // Set stored a copy, so add in place
			}
		}
		if fn(inst) {
			return true
		}
	}
	return false
}

func TestTranslationMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tested := 0
	for iter := 0; tested < 120; iter++ {
		rp := randomBounds(rng)
		if rp.freeN > 14 {
			continue // keep brute force tractable
		}
		tested++
		f := randomFormula(rng, rp, nil, 2+rng.Intn(2))

		inst, st := Solve(Problem{Bounds: rp.b, Formula: f})
		bfSat := enumerateInstances(rp.b, func(in *Instance) bool { return Eval(f, in) })
		if (st == sat.Sat) != bfSat {
			t.Fatalf("iter %d: solver=%v bruteforce=%v\nformula: %s", iter, st, bfSat, f)
		}
		if st == sat.Sat && !Eval(f, inst) {
			t.Fatalf("iter %d: instance does not satisfy formula %s\n%s", iter, f, inst)
		}
	}
}

// checkCircuit grounds f over rp's bounds and checks the translation
// against the evaluator: every matrix the translator holds is strictly
// increasing by tuple content with no False cell, and on every instance
// within the bounds the circuit edge evaluates as Eval does. It returns
// the number of instances checked.
func checkCircuit(t testing.TB, rp *randProblem, f Formula) int {
	t.Helper()
	fac := boolcirc.New()
	tr := NewTranslator(rp.b, fac)
	edge := tr.Formula(f)
	sorted := func(m matrix, what string) {
		for i, c := range m {
			if c.r == boolcirc.False {
				t.Fatalf("%s: cell %v holds False\nformula: %s", what, tr.tuples[c.id], f)
			}
			if i > 0 && slices.Compare(tr.tuples[m[i-1].id], tr.tuples[c.id]) >= 0 {
				t.Fatalf("%s: cell %v follows %v\nformula: %s", what, tr.tuples[c.id], tr.tuples[m[i-1].id], f)
			}
		}
	}
	for r, m := range tr.relMats {
		sorted(m, "relation "+r.name)
	}
	for k, m := range tr.exprCache {
		sorted(m, k.e.String())
	}
	vals := make([]bool, fac.NumVars())
	n := 0
	enumerateInstances(rp.b, func(in *Instance) bool {
		for _, r := range rp.b.Relations() {
			ext := in.Get(r)
			for _, rv := range tr.RelationVars(r) {
				vals[fac.VarID(rv.Ref)] = ext.Contains(rv.Tuple)
			}
		}
		if got, want := fac.Eval(edge, func(id int) bool { return vals[id] }), Eval(f, in); got != want {
			t.Fatalf("circuit says %v, Eval says %v\nformula: %s\ninstance:\n%s", got, want, f, in)
		}
		n++
		return false
	})
	return n
}

// TestCircuitMatchesEvaluatorOnEveryInstance is the exhaustive form of
// TestTranslationMatchesEvaluator: rather than one solver verdict per
// formula, it compares the circuit with the evaluator on every instance.
func TestCircuitMatchesEvaluatorOnEveryInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	formulas, instances := 0, 0
	for formulas < 400 {
		rp := randomBounds(rng)
		if rp.freeN > 10 {
			continue // keep enumeration tractable
		}
		formulas++
		instances += checkCircuit(t, rp, randomFormula(rng, rp, nil, 2+rng.Intn(2)))
	}
	t.Logf("%d formulas, %d instances", formulas, instances)
}

// TestMatricesSortedPastTenAtoms grounds over 12 atoms, where a tuple
// set's string-keyed order ("1,10" before "1,2") is not content order, so
// a relation or constant matrix left in that order fails checkCircuit.
func TestMatricesSortedPastTenAtoms(t *testing.T) {
	atoms := make([]string, 12)
	for i := range atoms {
		atoms[i] = "a" + strconv.Itoa(i)
	}
	u := NewUniverse(atoms...)
	pairs := func(ps ...[2]int) *TupleSet {
		ts := NewTupleSet(u, 2)
		for _, p := range ps {
			ts.Add(Tuple{p[0], p[1]})
		}
		return ts
	}
	r := NewRelation("R", 2)
	s := NewRelation("S", 1)
	b := NewBounds(u)
	b.Bound(r, pairs([2]int{1, 10}), pairs([2]int{1, 2}, [2]int{1, 10}, [2]int{2, 11}, [2]int{10, 1}, [2]int{11, 3}))
	b.Bound(s, NewTupleSet(u, 1), TupleSetOf(u, []string{"a1"}, []string{"a2"}, []string{"a10"}, []string{"a11"}))
	k := Const(pairs([2]int{3, 10}, [2]int{3, 2}, [2]int{10, 11}, [2]int{2, 10}))
	x := NewVar("x")
	f := And(
		Some(Union(Join(r, r), Transpose(k))),
		Forall([]Decl{NewDecl(x, s)}, Implies(Some(Join(x, r)), In(Join(x, k), Join(s, r)))),
		Lone(Intersect(r, k)),
	)
	rp := &randProblem{u: u, rels: []*Relation{r, s}, b: b, freeN: 8}
	if n := checkCircuit(t, rp, f); n != 1<<rp.freeN {
		t.Fatalf("checked %d instances, want %d", n, 1<<rp.freeN)
	}
}

// FuzzTranslationMatchesEvaluator runs the checkCircuit comparison on the
// problem and formula that a seed and a formula depth generate.
func FuzzTranslationMatchesEvaluator(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		rp := randomBounds(rng)
		for rp.freeN > 10 {
			rp = randomBounds(rng)
		}
		checkCircuit(t, rp, randomFormula(rng, rp, nil, int(depth%4)))
	})
}

func TestSubstituteSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tested := 0
	for iter := 0; tested < 80; iter++ {
		rp := randomBounds(rng)
		if rp.freeN > 12 {
			continue
		}
		tested++
		f := randomFormula(rng, rp, nil, 2)
		// Fix the first relation to a random extent within its bounds.
		fixedRel := rp.rels[0]
		extent := rp.b.Lower(fixedRel).Clone()
		for _, tp := range rp.b.Upper(fixedRel).Tuples() {
			if rng.Intn(2) == 0 {
				extent.Add(tp)
			}
		}
		sub := Substitute(f, map[*Relation]*TupleSet{fixedRel: extent})
		if FreeRelations(sub)[fixedRel] {
			t.Fatalf("substituted relation still free in %s", sub)
		}
		// On any instance whose fixedRel extent matches, f ≡ sub.
		enumerateInstances(rp.b, func(in *Instance) bool {
			in2 := in.Clone()
			in2.Set(fixedRel, extent)
			if Eval(f, in2) != Eval(sub, in2) {
				t.Fatalf("iter %d: substitution changed semantics\nf: %s\nsub: %s", iter, f, sub)
			}
			return false
		})
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tested := 0
	for iter := 0; tested < 80; iter++ {
		rp := randomBounds(rng)
		if rp.freeN > 12 {
			continue
		}
		tested++
		f := randomFormula(rng, rp, nil, 2)
		simp := Simplify(f, rp.u)
		enumerateInstances(rp.b, func(in *Instance) bool {
			if Eval(f, in) != Eval(simp, in) {
				t.Fatalf("iter %d: Simplify changed semantics\nf:    %s\nsimp: %s\ninst:\n%s", iter, f, simp, in)
			}
			return false
		})
	}
}

func TestSimplifyFoldsGroundTerms(t *testing.T) {
	u := u3()
	ca := ConstAtom(u, "a")
	cb := ConstAtom(u, "b")
	f := In(ca, Union(ca, cb))
	if got := Simplify(f, u); got != TrueFormula() {
		t.Fatalf("ground true formula not folded: %v", got)
	}
	f = In(ca, cb)
	if got := Simplify(f, u); got != FalseFormula() {
		t.Fatalf("ground false formula not folded: %v", got)
	}
	f = Some(Diff(ca, ca))
	if got := Simplify(f, u); got != FalseFormula() {
		t.Fatalf("some(empty) not folded: %v", got)
	}
}

func TestDecompose(t *testing.T) {
	f := newFixture()
	x := NewVar("x")
	g1 := Some(f.link)
	g2 := No(Join(ConstAtom(f.u, "s1"), f.link))
	g3 := Forall([]Decl{NewDecl(x, f.s)}, And(In(x, f.s), Some(f.s)))
	parts := Decompose(And(g1, And(g2, g3)))
	if len(parts) != 4 {
		t.Fatalf("want 4 parts (2 plain + 2 distributed ∀), got %d: %v", len(parts), parts)
	}
	// Conjunction of parts must equal the original on random instances.
	rng := rand.New(rand.NewSource(3))
	orig := And(g1, And(g2, g3))
	for trial := 0; trial < 40; trial++ {
		inst := NewInstance(f.u)
		inst.Set(f.s, f.bounds.Lower(f.s))
		inst.Set(f.p, f.bounds.Lower(f.p))
		ts := NewTupleSet(f.u, 2)
		for _, tp := range f.bounds.Upper(f.link).Tuples() {
			if rng.Intn(2) == 0 {
				ts.Add(tp)
			}
		}
		inst.Set(f.link, ts)
		all := true
		for _, p := range parts {
			if !Eval(p, inst) {
				all = false
				break
			}
		}
		if all != Eval(orig, inst) {
			t.Fatalf("decomposition changed semantics on trial %d", trial)
		}
	}
}

func TestFreeRelationsAndVars(t *testing.T) {
	f := newFixture()
	x := NewVar("x")
	y := NewVar("y")
	g := Forall([]Decl{NewDecl(x, f.s)}, Some(Join(x, f.link)))
	rels := FreeRelations(g)
	if !rels[f.s] || !rels[f.link] || rels[f.p] {
		t.Fatalf("FreeRelations = %v", rels)
	}
	// y occurs free here.
	h := Some(Join(y, f.link))
	fv := FreeVarsFormula(h)
	if !fv[y] || len(fv) != 1 {
		t.Fatalf("FreeVarsFormula = %v", fv)
	}
	if fv := FreeVarsFormula(g); len(fv) != 0 {
		t.Fatalf("no free vars expected in %s, got %v", g, fv)
	}
}

func TestSessionIncremental(t *testing.T) {
	f := newFixture()
	ss := NewSession(f.bounds)
	ss.Assert(Some(f.link))
	if ss.Solve() != sat.Sat {
		t.Fatal("phase 1 should be SAT")
	}
	lit := ss.Lit(No(f.link))
	if ss.Solve(lit) != sat.Unsat {
		t.Fatal("some ∧ no should be UNSAT under assumption")
	}
	if ss.Solve() != sat.Sat {
		t.Fatal("dropping the assumption should restore SAT")
	}
}

func TestSessionTupleLit(t *testing.T) {
	f := newFixture()
	ss := NewSession(f.bounds)
	ss.Assert(Some(f.link))
	tp := Tuple{f.u.MustIndex("s1"), f.u.MustIndex("s2")}
	lit, ok := ss.TupleLit(f.link, tp)
	if !ok {
		t.Fatal("free tuple should have a literal")
	}
	if ss.Solve(lit) != sat.Sat {
		t.Fatal("forcing one tuple should be SAT")
	}
	if !ss.Instance().Get(f.link).Contains(tp) {
		t.Fatal("forced tuple missing from instance")
	}
	// Lower-bound (non-free) tuples have no literal.
	if _, ok := ss.TupleLit(f.s, Tuple{0}); ok {
		t.Fatal("exactly-bound tuple should not be free")
	}
}

func TestFormulaStrings(t *testing.T) {
	f := newFixture()
	x := NewVar("x")
	g := Forall([]Decl{NewDecl(x, f.s)}, Some(Join(x, f.link)))
	want := "all x: Service | some (x.link)"
	if g.String() != want {
		t.Fatalf("got %q want %q", g.String(), want)
	}
	c := Comprehension([]Decl{NewDecl(x, f.s)}, No(Join(x, f.link)))
	if c.String() != "{x: Service | no (x.link)}" {
		t.Fatalf("got %q", c.String())
	}
}

func TestConstructorFolds(t *testing.T) {
	f := newFixture()
	g := Some(f.link)
	if And() != TrueFormula() || Or() != FalseFormula() {
		t.Fatal("empty connectives")
	}
	if And(g, TrueFormula()) != g || Or(g, FalseFormula()) != g {
		t.Fatal("unit folds")
	}
	if And(g, FalseFormula()) != FalseFormula() || Or(g, TrueFormula()) != TrueFormula() {
		t.Fatal("absorbing folds")
	}
	if Not(Not(g)) != g {
		t.Fatal("double negation")
	}
	if Implies(TrueFormula(), g) != g || Implies(g, TrueFormula()) != TrueFormula() {
		t.Fatal("implication folds")
	}
}

func BenchmarkTranslateFig1Scale(b *testing.B) {
	f := newFixture()
	x := NewVar("x")
	y := NewVar("y")
	goal := Forall([]Decl{NewDecl(x, f.s), NewDecl(y, f.s)},
		Implies(Some(Join(Product(x, y), f.link)), Some(Join(x, f.link))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss := NewSession(f.bounds)
		ss.Assert(goal)
		ss.Solve()
	}
}
