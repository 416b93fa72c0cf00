package relational

import (
	"slices"
	"sort"
	"strings"
)

// Instance assigns a concrete tuple-set extent to each relation. Instances
// are what the solver returns and what the evaluator consumes.
type Instance struct {
	u *Universe
	m map[*Relation]*TupleSet
}

// NewInstance creates an empty instance over a universe.
func NewInstance(u *Universe) *Instance {
	return &Instance{u: u, m: make(map[*Relation]*TupleSet)}
}

// Universe returns the instance's universe.
func (in *Instance) Universe() *Universe { return in.u }

// Set assigns r's extent (a copy is stored).
func (in *Instance) Set(r *Relation, ts *TupleSet) {
	if ts.arity != r.arity {
		panic("relational: instance arity mismatch for " + r.name)
	}
	in.m[r] = ts.Clone()
}

// Get returns r's extent, defaulting to the empty set.
func (in *Instance) Get(r *Relation) *TupleSet {
	if ts, ok := in.m[r]; ok {
		return ts
	}
	return NewTupleSet(in.u, r.arity)
}

// Relations returns the relations with assigned extents, sorted by name.
func (in *Instance) Relations() []*Relation {
	out := make([]*Relation, 0, len(in.m))
	for r := range in.m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	c := NewInstance(in.u)
	for r, ts := range in.m {
		c.m[r] = ts.Clone()
	}
	return c
}

// String renders the instance one relation per line.
func (in *Instance) String() string {
	var b strings.Builder
	for _, r := range in.Relations() {
		b.WriteString(r.name)
		b.WriteString(" = ")
		b.WriteString(in.m[r].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// The evaluator checks concrete configurations against envelopes and
// goals (CheckCandidate, Envelope.Failing) and folds ground subterms for
// Simplify. It is hot: a warm request evaluates its goals and envelope
// clauses under thousands of quantifier bindings, and when it copied a
// binding map per binding and built a string-keyed set per subterm it
// made 40% of the bytes a serving daemon allocated. So it binds
// variables on a stack and reads relation extents, constants and bound
// variables in place; only an operator that changes its operands builds a
// new key slice. A result may therefore share the instance's extents, the
// formula's constants or the universe's rank table, and nothing may
// modify it: EvalExpr hands out a copy.

// evaluator evaluates formulas and expressions under an instance.
type evaluator struct {
	u  *Universe
	in *Instance // nil: every relation is empty (Simplify's ground folds)
	// stack holds the quantifier bindings in scope, innermost last; a
	// variable denotes the atom of its innermost binding.
	stack []binding
}

type binding struct {
	v    *Var
	atom int
}

func (ev *evaluator) push(v *Var, atom int) { ev.stack = append(ev.stack, binding{v, atom}) }

func (ev *evaluator) pop() { ev.stack = ev.stack[:len(ev.stack)-1] }

// Eval evaluates a closed formula under an instance.
func Eval(f Formula, in *Instance) bool {
	ev := evaluator{u: in.u, in: in}
	return ev.formula(f)
}

// EvalExpr evaluates a closed expression under an instance. The result is
// the caller's to modify.
func EvalExpr(e Expr, in *Instance) *TupleSet {
	ev := evaluator{u: in.u, in: in}
	ts := ev.expr(e)
	return ts.Clone()
}

func (ev *evaluator) formula(f Formula) bool {
	switch g := f.(type) {
	case *ConstFormula:
		return g.val

	case *CompFormula:
		l := ev.expr(g.l)
		r := ev.expr(g.r)
		if g.op == opIn {
			return r.ContainsAll(&l)
		}
		return l.Equal(&r)

	case *MultFormula:
		ts := ev.expr(g.e)
		n := ts.Len()
		switch g.mult {
		case MultSome:
			return n > 0
		case MultNo:
			return n == 0
		case MultOne:
			return n == 1
		case MultLone:
			return n <= 1
		}
		panic("relational: unknown multiplicity")

	case *NotFormula:
		return !ev.formula(g.f)

	case *NaryFormula:
		switch g.op {
		case OpAnd:
			for _, sub := range g.fs {
				if !ev.formula(sub) {
					return false
				}
			}
			return true
		case OpOr:
			for _, sub := range g.fs {
				if ev.formula(sub) {
					return true
				}
			}
			return false
		case OpImplies:
			return !ev.formula(g.fs[0]) || ev.formula(g.fs[1])
		case OpIff:
			return ev.formula(g.fs[0]) == ev.formula(g.fs[1])
		}
		panic("relational: unknown connective")

	case *QuantFormula:
		return ev.quant(g, g.decls)

	default:
		panic("relational: unknown formula in Eval")
	}
}

func (ev *evaluator) quant(q *QuantFormula, decls []Decl) bool {
	if len(decls) == 0 {
		return ev.formula(q.body)
	}
	dom := ev.expr(decls[0].domain)
	for _, k := range dom.keys {
		ev.push(decls[0].v, int(ev.u.byRank[k]))
		held := ev.quant(q, decls[1:])
		ev.pop()
		if held != q.forall {
			return held
		}
	}
	return q.forall
}

func (ev *evaluator) expr(ex Expr) TupleSet {
	switch g := ex.(type) {
	case *Relation:
		if ev.in != nil {
			if ts, ok := ev.in.m[g]; ok {
				return *ts
			}
		}
		return TupleSet{u: ev.u, arity: g.arity}

	case *Var:
		for i := len(ev.stack) - 1; i >= 0; i-- {
			if b := ev.stack[i]; b.v == g {
				return TupleSet{u: ev.u, arity: 1, keys: ev.u.rank[b.atom : b.atom+1 : b.atom+1]}
			}
		}
		panic("relational: unbound variable " + g.name + " in Eval")

	case *ConstExpr:
		return *g.ts

	case *BinExpr:
		l := ev.expr(g.l)
		r := ev.expr(g.r)
		switch g.op {
		case opUnion:
			switch {
			case len(r.keys) == 0:
				return l
			case len(l.keys) == 0:
				return r
			}
			return TupleSet{u: ev.u, arity: l.arity, keys: union(l.keys, r.keys)}
		case opIntersect:
			if len(r.keys) < len(l.keys) {
				l, r = r, l
			}
			return TupleSet{u: ev.u, arity: l.arity, keys: filter(l.keys, r.keys, true)}
		case opDiff:
			return TupleSet{u: ev.u, arity: l.arity, keys: filter(l.keys, r.keys, false)}
		case opProduct:
			return ev.product(l, r)
		case opJoin:
			return ev.join(l, r)
		}
		panic("relational: unknown binary expression in Eval")

	case *TransposeExpr:
		inner := ev.expr(g.e)
		n := uint64(ev.u.Size())
		keys := make([]uint64, len(inner.keys))
		for i, k := range inner.keys {
			keys[i] = k%n*n + k/n
		}
		slices.Sort(keys)
		return TupleSet{u: ev.u, arity: 2, keys: keys}

	case *ComprehensionExpr:
		out := emptySet(ev.u, len(g.decls))
		ev.comprehension(g, g.decls, 0, &out.keys)
		return out

	default:
		panic("relational: unknown expression in Eval")
	}
}

// product concatenates every left tuple with every right tuple: the key
// of a++b is key(a)·|U|^arity(b) + key(b), so a left-major walk of two
// sorted operands yields sorted keys.
func (ev *evaluator) product(l, r TupleSet) TupleSet {
	out := emptySet(ev.u, l.arity+r.arity)
	if len(l.keys) == 0 || len(r.keys) == 0 {
		return out
	}
	w := pow(ev.u.Size(), r.arity)
	out.keys = make([]uint64, 0, len(l.keys)*len(r.keys))
	for _, a := range l.keys {
		for _, b := range r.keys {
			out.keys = append(out.keys, a*w+b)
		}
	}
	return out
}

// join matches each left tuple's last atom with the right tuples starting
// with it. Those are the right keys in [c·w, (c+1)·w), where c is the
// atom's rank and w = |U|^(arity(r)−1); the joined key is the left key's
// prefix times w plus the right key's remainder. Left tuples that differ
// only in their last atom can interleave their joins, so the keys are
// sorted afterwards when they came out of order.
func (ev *evaluator) join(l, r TupleSet) TupleSet {
	out := emptySet(ev.u, l.arity+r.arity-2)
	n := uint64(ev.u.Size())
	w := pow(ev.u.Size(), r.arity-1)
	sorted := true
	for _, a := range l.keys {
		lo := a % n * w
		i, _ := slices.BinarySearch(r.keys, lo)
		for _, b := range r.keys[i:] {
			if b >= lo+w {
				break
			}
			k := a/n*w + b - lo
			if len(out.keys) > 0 && k <= out.keys[len(out.keys)-1] {
				sorted = false
			}
			out.keys = append(out.keys, k)
		}
	}
	if !sorted {
		slices.Sort(out.keys)
		out.keys = slices.Compact(out.keys)
	}
	return out
}

// comprehension appends to out the keys of the bindings of decls that
// satisfy c's body; prefix is the key of the enclosing declarations'
// atoms. Domains are walked in key order, so the keys come out sorted.
func (ev *evaluator) comprehension(c *ComprehensionExpr, decls []Decl, prefix uint64, out *[]uint64) {
	if len(decls) == 0 {
		if ev.formula(c.body) {
			*out = append(*out, prefix)
		}
		return
	}
	n := uint64(ev.u.Size())
	dom := ev.expr(decls[0].domain)
	for _, k := range dom.keys {
		ev.push(decls[0].v, int(ev.u.byRank[k]))
		ev.comprehension(c, decls[1:], prefix*n+k, out)
		ev.pop()
	}
}
