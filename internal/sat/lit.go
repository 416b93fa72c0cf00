// Package sat implements a conflict-driven clause-learning (CDCL)
// boolean satisfiability solver in the MiniSat tradition: two-watched-literal
// propagation, first-UIP conflict analysis, exponential VSIDS variable
// activities, phase saving, Luby restarts, and activity-based learnt-clause
// database reduction. It supports incremental solving under assumptions and
// reports a final-conflict assumption core on UNSAT.
//
// The solver is the bottom of the Muppet stack: relational formulas are
// grounded to boolean circuits (package boolcirc), emitted here as CNF via
// the Tseitin transformation, and solved. It stands in for the SAT backend
// that Kodkod/Pardinus bundle in the paper's prototype.
package sat

import "fmt"

// Var identifies a boolean variable. Valid variables are ≥ 0 and are created
// with Solver.NewVar.
type Var int32

// Lit is a literal: a variable or its negation, encoded MiniSat-style as
// 2*var for the positive literal and 2*var+1 for the negation.
type Lit int32

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// MkLit builds a literal from a variable. neg selects the negation.
func MkLit(v Var, neg bool) Lit {
	if neg {
		return Lit(2*v + 1)
	}
	return Lit(2 * v)
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(2 * v) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(2*v + 1) }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether l is a negated literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// String renders the literal as "x7" or "¬x7".
func (l Lit) String() string {
	if l == LitUndef {
		return "lit(undef)"
	}
	if l.Neg() {
		return fmt.Sprintf("¬x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// lbool is a lifted boolean: true, false, or undefined.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// xorSign flips a lifted boolean when the literal is negative.
func (b lbool) xorSign(neg bool) lbool {
	if neg {
		return -b
	}
	return b
}
