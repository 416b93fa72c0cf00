// Package boolcirc provides a hash-consed boolean circuit factory in the
// style of an and-inverter graph (AIG): the only gate is binary AND, and
// negation is carried on edges. N-ary conjunction/disjunction, implication,
// equivalence and if-then-else are built on top with constant folding and
// structural sharing.
//
// Circuits are emitted to a sat.Solver via the Tseitin transformation. In
// the Muppet stack this package is the middle layer: the relational
// translator (package relational) grounds bounded first-order formulas into
// circuits, and the circuit is what the SAT backend ultimately decides. It
// plays the role of Kodkod's boolean factory.
//
// Storage is a flat struct-of-arrays arena: a node is an index into three
// parallel slices (kind, input a, input b), a Ref is an edge made of a node
// offset plus a complement bit, and hash-consing runs over an open-addressed
// index table into the arena rather than a Go map of boxed keys. The CNF
// emitter keeps its per-node state in dense slices indexed by the same
// offsets, so the whole formula→clause front-end walks flat memory the way
// the solver's clause arena does.
package boolcirc

import (
	"fmt"

	"muppet/internal/sat"
)

// Ref is an edge into the circuit: a node index with a complement bit in
// the lowest bit. The zero node is the constant true.
type Ref int32

// True and False are the constant references.
const (
	True  Ref = 0
	False Ref = 1
)

// Not returns the complement edge.
func (r Ref) Not() Ref { return r ^ 1 }

// IsConst reports whether r is the constant true or false.
func (r Ref) IsConst() bool { return r>>1 == 0 }

func (r Ref) node() int32        { return int32(r >> 1) }
func (r Ref) complemented() bool { return r&1 == 1 }

type nodeKind uint8

const (
	kindConst nodeKind = iota
	kindVar
	kindAnd
)

// Options configure a Factory.
type Options struct {
	// NoHashCons disables structural sharing of AND nodes (ablation).
	NoHashCons bool
}

// Factory builds and owns circuit nodes in a struct-of-arrays arena:
// kind[i], ina[i], inb[i] describe node i. For kindVar nodes ina holds the
// variable id. The zero value is not usable; call New or NewWithOptions.
type Factory struct {
	opts Options
	kind []nodeKind
	ina  []Ref
	inb  []Ref
	vars int32
	// cons is an open-addressed hash table mapping the (a,b) inputs of an
	// AND node to its arena index: consTab holds node indices (0 = empty;
	// the zero node is the constant and never an AND, so 0 is free as the
	// empty marker). The keys live in the arena itself — a probe compares
	// against ina/inb at the stored index — so the table is just int32s.
	consTab  []int32
	consUsed int
}

// New returns an empty factory with hash-consing enabled.
func New() *Factory { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty factory.
func NewWithOptions(opts Options) *Factory {
	f := &Factory{
		opts: opts,
		kind: make([]nodeKind, 1, 64),
		ina:  make([]Ref, 1, 64),
		inb:  make([]Ref, 1, 64),
	}
	if !opts.NoHashCons {
		f.consTab = make([]int32, 64)
	}
	return f
}

// NumNodes returns the number of allocated nodes (constants, variables and
// AND gates).
func (f *Factory) NumNodes() int { return len(f.kind) }

// NumVars returns the number of circuit variables created.
func (f *Factory) NumVars() int { return int(f.vars) }

func (f *Factory) newNode(k nodeKind, a, b Ref) int32 {
	f.kind = append(f.kind, k)
	f.ina = append(f.ina, a)
	f.inb = append(f.inb, b)
	return int32(len(f.kind) - 1)
}

// Var allocates a fresh circuit variable and returns its positive edge.
func (f *Factory) Var() Ref {
	id := f.vars
	f.vars++
	return Ref(f.newNode(kindVar, Ref(id), 0) << 1)
}

// VarID returns the variable identifier behind a variable reference
// (ignoring complementation). It panics if r does not point at a variable.
func (f *Factory) VarID(r Ref) int {
	ni := r.node()
	if f.kind[ni] != kindVar {
		panic("boolcirc: VarID of non-variable ref")
	}
	return int(f.ina[ni])
}

// IsVar reports whether r points at a variable node.
func (f *Factory) IsVar(r Ref) bool { return f.kind[r.node()] == kindVar }

// Bool returns the constant for b.
func (f *Factory) Bool(b bool) Ref {
	if b {
		return True
	}
	return False
}

// And returns the conjunction of the operands, folding constants and
// duplicates, as a balanced tree of binary AND gates.
func (f *Factory) And(rs ...Ref) Ref {
	acc := True
	for _, r := range rs {
		acc = f.and2(acc, r)
		if acc == False {
			return False
		}
	}
	return acc
}

// Or returns the disjunction of the operands.
func (f *Factory) Or(rs ...Ref) Ref {
	acc := False
	for _, r := range rs {
		// a ∨ b = ¬(¬a ∧ ¬b)
		acc = f.and2(acc.Not(), r.Not()).Not()
		if acc == True {
			return True
		}
	}
	return acc
}

// Not returns the complement of r.
func (f *Factory) Not(r Ref) Ref { return r.Not() }

// Implies returns a → b.
func (f *Factory) Implies(a, b Ref) Ref { return f.Or(a.Not(), b) }

// Iff returns a ↔ b.
func (f *Factory) Iff(a, b Ref) Ref {
	// (a→b) ∧ (b→a)
	return f.And(f.Implies(a, b), f.Implies(b, a))
}

// ITE returns if c then t else e.
func (f *Factory) ITE(c, t, e Ref) Ref {
	return f.And(f.Implies(c, t), f.Implies(c.Not(), e))
}

// consHash mixes an ordered (a,b) input pair into a table index seed.
func consHash(a, b Ref) uint64 {
	h := uint64(uint32(a))<<32 | uint64(uint32(b))
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// consFind probes for an AND node with inputs (a,b); it returns the node
// index, or the slot where such a node should be inserted (marked by a
// negative return with the slot encoded as ^slot).
func (f *Factory) consFind(a, b Ref) int32 {
	mask := uint64(len(f.consTab) - 1)
	i := consHash(a, b) & mask
	for {
		ni := f.consTab[i]
		if ni == 0 {
			return int32(^i)
		}
		if f.ina[ni] == a && f.inb[ni] == b {
			return ni
		}
		i = (i + 1) & mask
	}
}

func (f *Factory) consGrow() {
	old := f.consTab
	f.consTab = make([]int32, 2*len(old))
	mask := uint64(len(f.consTab) - 1)
	for _, ni := range old {
		if ni == 0 {
			continue
		}
		i := consHash(f.ina[ni], f.inb[ni]) & mask
		for f.consTab[i] != 0 {
			i = (i + 1) & mask
		}
		f.consTab[i] = ni
	}
}

func (f *Factory) and2(a, b Ref) Ref {
	// Constant and structural folding.
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	case a == b.Not():
		return False
	}
	if a > b {
		a, b = b, a
	}
	if f.consTab == nil {
		return Ref(f.newNode(kindAnd, a, b) << 1)
	}
	slot := f.consFind(a, b)
	if slot >= 0 {
		return Ref(slot << 1)
	}
	ni := f.newNode(kindAnd, a, b)
	f.consTab[^slot] = ni
	f.consUsed++
	if f.consUsed*4 >= len(f.consTab)*3 {
		f.consGrow()
	}
	return Ref(ni << 1)
}

// Eval computes the value of r under the variable assignment varVal
// (indexed by variable id as returned by VarID). The memo is a dense
// slice keyed by node index — one allocation, no hashing — and the walk
// is an explicit stack over the flat arena, so repeated envelope/feedback
// evaluation over large circuits stays cheap and recursion-free.
func (f *Factory) Eval(r Ref, varVal func(int) bool) bool {
	const (
		unknown uint8 = iota
		valFalse
		valTrue
	)
	memo := make([]uint8, len(f.kind))
	memo[0] = valTrue
	// The stack holds node indices; a node is pushed at most twice: once
	// to schedule its children, once (found memoised-or-ready) to combine.
	stack := make([]int32, 0, 64)
	stack = append(stack, r.node())
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		if memo[ni] != unknown {
			stack = stack[:len(stack)-1]
			continue
		}
		switch f.kind[ni] {
		case kindVar:
			if varVal(int(f.ina[ni])) {
				memo[ni] = valTrue
			} else {
				memo[ni] = valFalse
			}
			stack = stack[:len(stack)-1]
		case kindAnd:
			an, bn := f.ina[ni].node(), f.inb[ni].node()
			ma, mb := memo[an], memo[bn]
			if ma == unknown {
				stack = append(stack, an)
				continue
			}
			if mb == unknown {
				stack = append(stack, bn)
				continue
			}
			va := ma == valTrue != f.ina[ni].complemented()
			vb := mb == valTrue != f.inb[ni].complemented()
			if va && vb {
				memo[ni] = valTrue
			} else {
				memo[ni] = valFalse
			}
			stack = stack[:len(stack)-1]
		default:
			stack = stack[:len(stack)-1]
		}
	}
	v := memo[r.node()] == valTrue
	if r.complemented() {
		return !v
	}
	return v
}

// Polarity bits track which implication direction of a gate's Tseitin
// definition has been emitted. polPos is the clauses for v → gate (needed
// where the gate is used positively), polNeg the clauses for gate → v.
const (
	polPos  uint8 = 1
	polNeg  uint8 = 2
	polBoth uint8 = polPos | polNeg
)

// flipPol swaps the two single directions; a complemented edge inverts
// which direction of the child supports the parent's.
func flipPol(p uint8) uint8 {
	switch p {
	case polPos:
		return polNeg
	case polNeg:
		return polPos
	}
	return p
}

// CNFOptions configure the circuit-to-CNF emission; the zero value is the
// recommended default. The toggle exists for the ablation benchmarks.
type CNFOptions struct {
	// NoPolarity always emits the full three-clause biconditional per AND
	// gate instead of Plaisted–Greenbaum polarity-aware emission.
	NoPolarity bool
}

// CNF incrementally emits circuit nodes into a SAT solver via the Tseitin
// transformation. One CNF may serve many Assert/LitFor calls; node→solver
// variable mappings and emitted polarities are memoised in dense slices
// indexed by arena offset.
//
// Emission is polarity-aware (Plaisted–Greenbaum): Assert emits only the
// implication direction the asserted polarity needs, and a gate first
// reached through one polarity is lazily upgraded to the full
// biconditional if the other polarity is requested later — the
// incremental solver makes adding the missing clauses sound at any time.
// LitFor always emits both directions: its literal is handed out for
// assumptions, unsat-core selectors and soft targets, all of which rely
// on the literal being equivalent to the cone, not merely implying it.
//
// Every literal the CNF hands out — LitFor roots and circuit variables —
// is frozen in the solver, so CNF-level identities survive CNF-level
// preprocessing (see internal/simp).
type CNF struct {
	f       *Factory
	s       *sat.Solver
	opts    CNFOptions
	nodeVar []sat.Var // circuit node index → solver variable (-1 unset)
	nodePol []uint8   // circuit node index → emitted polarities
	varVar  []sat.Var // circuit variable id → solver variable (-1 unset)
}

// NewCNF couples a factory with a solver using default options.
func NewCNF(f *Factory, s *sat.Solver) *CNF {
	return NewCNFWithOptions(f, s, CNFOptions{})
}

// NewCNFWithOptions couples a factory with a solver.
func NewCNFWithOptions(f *Factory, s *sat.Solver, opts CNFOptions) *CNF {
	return &CNF{f: f, s: s, opts: opts}
}

// ensureNode grows the dense node-indexed state to cover node ni (the
// factory keeps allocating nodes after the CNF is created).
func (c *CNF) ensureNode(ni int32) {
	for int(ni) >= len(c.nodeVar) {
		c.nodeVar = append(c.nodeVar, -1)
		c.nodePol = append(c.nodePol, 0)
	}
}

// Solver returns the underlying SAT solver.
func (c *CNF) Solver() *sat.Solver { return c.s }

// Factory returns the circuit factory this CNF emits from.
func (c *CNF) Factory() *Factory { return c.f }

// SolverVar returns the solver variable allocated for circuit variable id,
// creating (and freezing) it if needed.
func (c *CNF) SolverVar(id int) sat.Var {
	for id >= len(c.varVar) {
		c.varVar = append(c.varVar, -1)
	}
	if v := c.varVar[id]; v >= 0 {
		return v
	}
	v := c.s.NewVar()
	c.s.Freeze(v)
	c.varVar[id] = v
	return v
}

// LitFor returns a solver literal equivalent to the circuit edge r,
// emitting Tseitin definitions (both polarities) for any AND gates not
// yet encoded. Constants are encoded through a dedicated always-true
// variable. The literal's variable is frozen: callers use it as an
// assumption, selector, or soft target, and read it from models.
func (c *CNF) LitFor(r Ref) sat.Lit {
	v := c.litForNode(r.node(), polBoth)
	c.s.Freeze(v)
	return sat.MkLit(v, r.complemented())
}

// litForNode returns the solver variable for a circuit node, emitting any
// not-yet-emitted definition clauses for the requested polarity of the
// node's own function (callers account for edge complementation).
func (c *CNF) litForNode(ni int32, pol uint8) sat.Var {
	if c.opts.NoPolarity {
		pol = polBoth
	}
	c.ensureNode(ni)
	kind := c.f.kind[ni]
	v := c.nodeVar[ni]
	if v < 0 {
		switch kind {
		case kindConst:
			v = c.s.NewVar()
			c.s.AddClause(sat.PosLit(v)) // the true node
		case kindVar:
			v = c.SolverVar(int(c.f.ina[ni]))
		case kindAnd:
			v = c.s.NewVar()
		default:
			panic(fmt.Sprintf("boolcirc: unknown node kind %d", kind))
		}
		c.nodeVar[ni] = v
	}
	if kind != kindAnd {
		return v
	}
	missing := pol &^ c.nodePol[ni]
	if missing == 0 {
		return v
	}
	// Mark before descending (children never cycle back — the circuit is
	// a DAG — but the mark keeps re-entrant requests cheap).
	c.nodePol[ni] |= pol
	out := sat.PosLit(v)
	a, b := c.f.ina[ni], c.f.inb[ni]
	if missing&polPos != 0 {
		// v → a ∧ b: children used positively.
		la := c.litEdge(a, polPos)
		lb := c.litEdge(b, polPos)
		c.s.AddClause(out.Not(), la)
		c.s.AddClause(out.Not(), lb)
	}
	if missing&polNeg != 0 {
		// a ∧ b → v: children used negatively.
		la := c.litEdge(a, polNeg)
		lb := c.litEdge(b, polNeg)
		c.s.AddClause(la.Not(), lb.Not(), out)
	}
	return v
}

// litEdge returns the literal for child edge e when the parent needs
// polarity pol of the edge's function; a complement edge flips which
// direction of the child node's definition is required.
func (c *CNF) litEdge(e Ref, pol uint8) sat.Lit {
	if e.complemented() {
		pol = flipPol(pol)
	}
	v := c.litForNode(e.node(), pol)
	return sat.MkLit(v, e.complemented())
}

// Assert adds the constraint that r must be true, emitting only the
// implication direction the assertion needs: asserting a positive edge
// needs v → cone, asserting a complemented edge needs cone → v.
func (c *CNF) Assert(r Ref) {
	switch r {
	case True:
		return
	case False:
		// Force unsatisfiability through the memoised constant node: the
		// always-true variable (minted once per CNF) plus its negation.
		c.s.AddClause(sat.MkLit(c.litForNode(True.node(), polBoth), true))
		return
	}
	pol := polPos
	if r.complemented() {
		pol = polNeg
	}
	v := c.litForNode(r.node(), pol)
	c.s.AddClause(sat.MkLit(v, r.complemented()))
}

// VarValue reads the model value of circuit variable id after a Sat solve.
// Unconstrained variables default to false.
func (c *CNF) VarValue(id int) bool {
	if id >= len(c.varVar) || c.varVar[id] < 0 {
		return false
	}
	return c.s.Value(c.varVar[id])
}
