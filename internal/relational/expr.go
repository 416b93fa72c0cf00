package relational

import (
	"fmt"
	"strings"
)

// Expr is a relational expression: it denotes a set of tuples of a fixed
// arity in any instance. Expressions are immutable values.
type Expr interface {
	// Arity returns the arity of the denoted tuple set.
	Arity() int
	// String renders the expression in an Alloy-like concrete syntax.
	String() string

	exprNode()
}

// Var is a quantified variable ranging over scalars (singleton unary
// tuple sets). Vars are compared by identity.
type Var struct {
	name string
}

// NewVar creates a fresh quantified variable with a display name.
func NewVar(name string) *Var { return &Var{name: name} }

// Name returns the variable's display name.
func (v *Var) Name() string { return v.name }

// Arity of a variable expression is always 1.
func (v *Var) Arity() int { return 1 }

func (v *Var) String() string { return v.name }
func (v *Var) exprNode()      {}

// Relation is itself an expression.
func (r *Relation) String() string { return r.name }
func (r *Relation) exprNode()      {}

// ConstExpr is a literal tuple set. It is the vehicle for envelope
// substitution: a relation fixed by one party's concrete configuration is
// replaced by the constant extent it has there.
type ConstExpr struct {
	ts *TupleSet
}

// Const builds a constant expression from a tuple set.
func Const(ts *TupleSet) *ConstExpr { return &ConstExpr{ts: ts.Clone()} }

// ConstAtom builds the scalar constant {a} for a named atom.
func ConstAtom(u *Universe, name string) *ConstExpr {
	return &ConstExpr{ts: NewTupleSet(u, 1).AddNames(name)}
}

// TupleSet returns a copy of the constant's extent.
func (c *ConstExpr) TupleSet() *TupleSet { return c.ts.Clone() }

// Arity returns the constant's tuple arity.
func (c *ConstExpr) Arity() int { return c.ts.arity }

func (c *ConstExpr) String() string {
	if c.ts.Len() == 0 {
		return "none"
	}
	parts := make([]string, 0, c.ts.Len())
	for _, t := range c.ts.Tuples() {
		names := make([]string, len(t))
		for i, a := range t {
			names[i] = c.ts.u.Atom(a)
		}
		parts = append(parts, strings.Join(names, "->"))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "{" + strings.Join(parts, " + ") + "}"
}
func (c *ConstExpr) exprNode() {}

// binExprOp enumerates binary expression operators.
type binExprOp uint8

const (
	opUnion binExprOp = iota
	opIntersect
	opDiff
	opProduct
	opJoin
)

// BinOp names a binary expression operator for external inspection
// (structural walkers, wire codecs). Values mirror the internal
// operator enumeration.
type BinOp uint8

// BinOp values, in constructor order.
const (
	OpUnion BinOp = iota
	OpIntersect
	OpDiff
	OpProduct
	OpJoin
)

// BinExpr is a binary relational operator application.
type BinExpr struct {
	op   binExprOp
	l, r Expr
}

// Op returns the operator.
func (b *BinExpr) Op() BinOp { return BinOp(b.op) }

// Left returns the left operand.
func (b *BinExpr) Left() Expr { return b.l }

// Right returns the right operand.
func (b *BinExpr) Right() Expr { return b.r }

// Arity computes the result arity for the operator.
func (b *BinExpr) Arity() int {
	switch b.op {
	case opProduct:
		return b.l.Arity() + b.r.Arity()
	case opJoin:
		return b.l.Arity() + b.r.Arity() - 2
	default:
		return b.l.Arity()
	}
}

func (b *BinExpr) String() string {
	var sym string
	switch b.op {
	case opUnion:
		sym = " + "
	case opIntersect:
		sym = " & "
	case opDiff:
		sym = " - "
	case opProduct:
		sym = "->"
	case opJoin:
		sym = "."
	}
	return "(" + b.l.String() + sym + b.r.String() + ")"
}
func (b *BinExpr) exprNode() {}

func sameArity(l, r Expr, op string) {
	if l.Arity() != r.Arity() {
		panic(fmt.Sprintf("relational: %s of arity %d and arity %d expressions", op, l.Arity(), r.Arity()))
	}
}

// Union returns l + r (set union).
func Union(l, r Expr) Expr {
	sameArity(l, r, "union")
	return &BinExpr{op: opUnion, l: l, r: r}
}

// Intersect returns l & r.
func Intersect(l, r Expr) Expr {
	sameArity(l, r, "intersection")
	return &BinExpr{op: opIntersect, l: l, r: r}
}

// Diff returns l - r (set difference).
func Diff(l, r Expr) Expr {
	sameArity(l, r, "difference")
	return &BinExpr{op: opDiff, l: l, r: r}
}

// Product returns the cross product l->r.
func Product(l, r Expr) Expr { return &BinExpr{op: opProduct, l: l, r: r} }

// Join returns the relational (dot) join l.r, matching the last column of l
// with the first column of r.
func Join(l, r Expr) Expr {
	if l.Arity()+r.Arity()-2 < 1 {
		panic("relational: join would produce arity < 1; use In for membership")
	}
	return &BinExpr{op: opJoin, l: l, r: r}
}

// TransposeExpr is the transpose of a binary expression.
type TransposeExpr struct {
	e Expr
}

// Transpose returns ~e for a binary e.
func Transpose(e Expr) Expr {
	if e.Arity() != 2 {
		panic("relational: transpose of non-binary expression")
	}
	return &TransposeExpr{e: e}
}

// Inner returns the transposed expression.
func (t *TransposeExpr) Inner() Expr { return t.e }

// Arity of a transpose is always 2.
func (t *TransposeExpr) Arity() int { return 2 }

func (t *TransposeExpr) String() string { return "~" + t.e.String() }
func (t *TransposeExpr) exprNode()      {}

// Decl binds a quantified variable to a unary domain expression.
type Decl struct {
	v      *Var
	domain Expr
}

// NewDecl declares v ∈ domain; domain must be unary.
func NewDecl(v *Var, domain Expr) Decl {
	if domain.Arity() != 1 {
		panic("relational: quantifier domain must be unary")
	}
	return Decl{v: v, domain: domain}
}

// Var returns the declared variable.
func (d Decl) Var() *Var { return d.v }

// Domain returns the declared domain expression.
func (d Decl) Domain() Expr { return d.domain }

func (d Decl) String() string { return d.v.name + ": " + d.domain.String() }

// ComprehensionExpr is the set {v1: D1, …, vn: Dn | F}.
type ComprehensionExpr struct {
	decls []Decl
	body  Formula
}

// Comprehension builds a set comprehension. Its arity is the number of
// declared variables.
func Comprehension(decls []Decl, body Formula) Expr {
	if len(decls) == 0 {
		panic("relational: comprehension needs at least one declaration")
	}
	return &ComprehensionExpr{decls: decls, body: body}
}

// Decls returns the comprehension's declarations.
func (c *ComprehensionExpr) Decls() []Decl { return c.decls }

// Body returns the comprehension's formula.
func (c *ComprehensionExpr) Body() Formula { return c.body }

// Arity returns the number of declared variables.
func (c *ComprehensionExpr) Arity() int { return len(c.decls) }

func (c *ComprehensionExpr) String() string {
	parts := make([]string, len(c.decls))
	for i, d := range c.decls {
		parts[i] = d.String()
	}
	return "{" + strings.Join(parts, ", ") + " | " + c.body.String() + "}"
}
func (c *ComprehensionExpr) exprNode() {}
