package relational

import (
	"strings"
	"testing"

	"muppet/internal/sat"
)

func TestExprStrings(t *testing.T) {
	u := u3()
	r := NewRelation("R", 2)
	s := NewRelation("S", 2)
	x := NewVar("x")
	cases := []struct {
		e    Expr
		want string
	}{
		{Union(r, s), "(R + S)"},
		{Intersect(r, s), "(R & S)"},
		{Diff(r, s), "(R - S)"},
		{Product(x, x), "(x->x)"},
		{Join(x, r), "(x.R)"},
		{Transpose(r), "~R"},
		{ConstAtom(u, "a"), "a"},
		{Const(NewTupleSet(u, 1)), "none"},
		{Const(TupleSetOf(u, []string{"a", "b"})), "a->b"},
		{Const(TupleSetOf(u, []string{"a"}, []string{"b"})), "{a + b}"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
}

func TestFormulaStringsExtra(t *testing.T) {
	r := NewRelation("R", 1)
	s := NewRelation("S", 1)
	cases := []struct {
		f    Formula
		want string
	}{
		{TrueFormula(), "true"},
		{FalseFormula(), "false"},
		{Equals(r, s), "R = S"},
		{One(r), "one R"},
		{Lone(r), "lone R"},
		{Not(Some(r)), "not (some R)"},
		{Iff(Some(r), Some(s)), "(some R iff some S)"},
		{Implies(Some(r), Some(s)), "(some R implies some S)"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
	x := NewVar("x")
	q := Exists([]Decl{NewDecl(x, r)}, In(x, s))
	if !strings.HasPrefix(q.String(), "some x: R | ") {
		t.Errorf("exists rendering: %q", q)
	}
}

func TestArityMismatchPanics(t *testing.T) {
	r1 := NewRelation("R1", 1)
	r2 := NewRelation("R2", 2)
	cases := []func(){
		func() { Union(r1, r2) },
		func() { Intersect(r1, r2) },
		func() { Diff(r1, r2) },
		func() { In(r1, r2) },
		func() { Equals(r1, r2) },
		func() { Transpose(r1) },
		func() { Join(r1, r1) }, // arity 0 result
		func() { NewRelation("bad", 0) },
		func() { NewVar("v"); NewDecl(NewVar("v"), r2) },
		func() { Comprehension(nil, TrueFormula()) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestTupleHelpers(t *testing.T) {
	u := u3()
	a := Tuple{0, 1}
	b := Tuple{0, 1}
	c := Tuple{1, 0}
	if !a.Equal(b) || a.Equal(c) || a.Equal(Tuple{0}) {
		t.Fatal("Tuple.Equal")
	}
	if a.String(u) != "(a, b)" {
		t.Fatalf("String: %q", a.String(u))
	}
}

func TestBoundsClone(t *testing.T) {
	u := u3()
	r := NewRelation("R", 1)
	b := NewBounds(u)
	b.Bound(r, NewTupleSet(u, 1), TupleSetOf(u, []string{"a"}))
	c := b.Clone()
	c.Upper(r).AddNames("b")
	if b.Upper(r).Len() != 1 {
		t.Fatal("Clone must deep-copy bounds")
	}
	if len(c.Relations()) != 1 || c.Relations()[0] != r {
		t.Fatal("Clone relations")
	}
}

func TestInstanceString(t *testing.T) {
	u := u3()
	r := NewRelation("R", 1)
	in := NewInstance(u)
	in.Set(r, TupleSetOf(u, []string{"a"}))
	if got := in.String(); !strings.Contains(got, "R = {(a)}") {
		t.Fatalf("Instance.String: %q", got)
	}
	clone := in.Clone()
	clone.Get(r).AddNames("b")
	// Get returns the live set for present relations; ensure Clone is deep
	// with respect to the original.
	if in.Get(r).Len() != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestTranslationSharesAcrossFormulas(t *testing.T) {
	// Two formulas grounded by one translator share relation variables:
	// asserting both must behave like their conjunction.
	f := newFixture()
	ss := NewSession(f.bounds)
	ss.Assert(Some(f.link))
	ss.Assert(No(f.link))
	if ss.Solve() != sat.Unsat {
		t.Fatal("shared variables must make the pair UNSAT")
	}
}

func TestIffAndOneTranslate(t *testing.T) {
	f := newFixture()
	x := NewVar("x")
	// one link from s1 iff one link from s2 — plus some link from s1,
	// forces at least structure; just check SAT and model consistency.
	fromS1 := Join(ConstAtom(f.u, "s1"), f.link)
	fromS2 := Join(ConstAtom(f.u, "s2"), f.link)
	goal := And(
		Iff(One(fromS1), One(fromS2)),
		Some(fromS1),
		One(fromS1),
	)
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if !Eval(goal, inst) {
		t.Fatal("instance must satisfy the Iff/One goal")
	}
	n1 := EvalExpr(fromS1, inst).Len()
	n2 := EvalExpr(fromS2, inst).Len()
	if n1 != 1 || (n2 == 1) != (n1 == 1) {
		t.Fatalf("one/iff semantics: n1=%d n2=%d", n1, n2)
	}
	_ = x
}

func TestLoneTranslate(t *testing.T) {
	f := newFixture()
	goal := And(Lone(Join(ConstAtom(f.u, "s1"), f.link)), Some(f.link))
	inst, st := Solve(Problem{Bounds: f.bounds, Formula: goal})
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if EvalExpr(Join(ConstAtom(f.u, "s1"), f.link), inst).Len() > 1 {
		t.Fatal("lone violated")
	}
}

func TestSimplifyQuantifierCollapse(t *testing.T) {
	u := u3()
	x := NewVar("x")
	empty := Const(NewTupleSet(u, 1))
	// ∀x∈∅|φ ≡ true; ∃x∈∅|φ ≡ false.
	if got := Simplify(Forall([]Decl{NewDecl(x, empty)}, FalseFormula()), u); got != TrueFormula() {
		t.Fatalf("forall-empty: %v", got)
	}
	if got := Simplify(Exists([]Decl{NewDecl(x, empty)}, TrueFormula()), u); got != FalseFormula() {
		t.Fatalf("exists-empty: %v", got)
	}
	// Non-empty constant domain + constant body collapse.
	dom := Const(TupleSetOf(u, []string{"a"}))
	if got := Simplify(Forall([]Decl{NewDecl(x, dom)}, FalseFormula()), u); got != FalseFormula() {
		t.Fatalf("forall-const-false: %v", got)
	}
	if got := Simplify(Exists([]Decl{NewDecl(x, dom)}, TrueFormula()), u); got != TrueFormula() {
		t.Fatalf("exists-const-true: %v", got)
	}
}

func TestUniformFoldUnderQuantifier(t *testing.T) {
	u := u3()
	x := NewVar("x")
	dom := Const(TupleSetOf(u, []string{"a"}, []string{"b"}))
	full := Const(TupleSetOf(u, []string{"a"}, []string{"b"}, []string{"c"}))
	// ∀x∈{a,b} | x in {a,b,c} — relation-free body, uniform true.
	f := Forall([]Decl{NewDecl(x, dom)}, In(x, full))
	if got := Simplify(f, u); got != TrueFormula() {
		t.Fatalf("uniform fold should give true: %v", got)
	}
	// ∀x∈{a,b} | x in {a} — not uniform: stays quantified.
	g := Forall([]Decl{NewDecl(x, dom)}, In(x, Const(TupleSetOf(u, []string{"a"}))))
	if _, isConst := Simplify(g, u).(*ConstFormula); isConst {
		t.Fatalf("non-uniform body must not fold: %v", Simplify(g, u))
	}
}

// TestUniformFoldReadsInnermostBinding binds one *Var again in nested and
// sibling scopes over different constant domains. Every case is
// relation-free, so Simplify folds it to a constant; a fold that read the
// outer binding, or a binding whose scope had ended, gives the wrong one.
func TestUniformFoldReadsInnermostBinding(t *testing.T) {
	u := u3()
	x, y := NewVar("x"), NewVar("y")
	a := Const(TupleSetOf(u, []string{"a"}))
	bc := Const(TupleSetOf(u, []string{"b"}, []string{"c"}))
	none := Const(NewTupleSet(u, 1))
	all := func(v *Var, dom Expr, body Formula) Formula { return Forall([]Decl{NewDecl(v, dom)}, body) }
	some := func(v *Var, dom Expr, body Formula) Formula { return Exists([]Decl{NewDecl(v, dom)}, body) }
	for _, c := range []struct {
		name string
		f    Formula
		want bool
	}{
		// The inner x ranges over {b,c}, not the outer {a}.
		{"nested", all(x, a, And(all(x, bc, In(x, bc)), In(x, a))), true},
		{"nested-negated", some(x, bc, Not(some(x, a, In(x, bc)))), true},
		// After the inner scope ends, x is the outer one again.
		{"after-nested", all(x, bc, And(all(x, a, In(x, a)), In(x, bc))), true},
		// An empty domain ends the inner scope early, after x was bound.
		{"after-empty-domain", all(x, bc, And(Forall([]Decl{NewDecl(x, a), NewDecl(y, none)}, FalseFormula()), In(x, bc))), true},
		{"after-comprehension", all(x, a, And(Some(Comprehension([]Decl{NewDecl(x, bc)}, In(x, bc))), In(x, a))), true},
		{"siblings", And(all(x, a, In(x, a)), some(x, bc, In(x, bc)), all(x, bc, Not(In(x, a)))), true},
		{"siblings-false", Or(all(x, a, In(x, bc)), all(x, bc, In(x, a))), false},
	} {
		if got := Eval(c.f, NewInstance(u)); got != c.want {
			t.Fatalf("%s: Eval = %v, want %v: %s", c.name, got, c.want, c.f)
		}
		if got := Simplify(c.f, u); got != constOf(c.want) {
			t.Errorf("%s: Simplify(%s) = %s, want %v", c.name, c.f, got, c.want)
		}
	}
}

func TestRelationAccessors(t *testing.T) {
	r := NewRelation("R", 3)
	if r.Name() != "R" || r.Arity() != 3 {
		t.Fatal("accessors")
	}
	v := NewVar("v")
	if v.Name() != "v" || v.Arity() != 1 {
		t.Fatal("var accessors")
	}
	c := Const(TupleSetOf(u3(), []string{"a"}))
	if c.Arity() != 1 || c.TupleSet().Len() != 1 {
		t.Fatal("const accessors")
	}
}

func TestMultAccessors(t *testing.T) {
	r := NewRelation("R", 1)
	m := Some(r).(*MultFormula)
	if m.Mult() != MultSome || m.Expr() != r {
		t.Fatal("mult accessors")
	}
	cmp := In(r, r).(*CompFormula)
	if !cmp.IsIn() || cmp.Left() != r || cmp.Right() != r {
		t.Fatal("comp accessors")
	}
	n := Not(Some(r)).(*NotFormula)
	if n.Inner().String() != "some R" {
		t.Fatal("not accessor")
	}
	q := Forall([]Decl{NewDecl(NewVar("x"), r)}, TrueFormula())
	if !q.(*QuantFormula).IsForall() || len(q.(*QuantFormula).Decls()) != 1 {
		t.Fatal("quant accessors")
	}
}

// TestEvalExprReturnsCopy checks that EvalExpr's result is the caller's:
// the evaluator shares the instance's extents and the formula's
// constants, so a bare relation or constant must come back copied.
func TestEvalExprReturnsCopy(t *testing.T) {
	u := u3()
	r := NewRelation("R", 1)
	in := NewInstance(u)
	in.Set(r, TupleSetOf(u, []string{"a"}))
	k := Const(TupleSetOf(u, []string{"b"}))
	for _, e := range []Expr{r, k, Union(r, Const(NewTupleSet(u, 1))), Intersect(k, Union(r, k)), Diff(k, r)} {
		EvalExpr(e, in).AddNames("c")
		if got := in.Get(r).String(); got != "{(a)}" {
			t.Fatalf("after mutating EvalExpr(%s): R = %s, want {(a)}", e, got)
		}
		if got := k.TupleSet().String(); got != "{(b)}" {
			t.Fatalf("after mutating EvalExpr(%s): constant = %s, want {(b)}", e, got)
		}
	}
}
