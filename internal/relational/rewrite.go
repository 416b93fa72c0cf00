package relational

// This file contains the formula-manipulation operations behind envelope
// extraction (Alg. 3 of the paper): substitution of relations by constant
// extents, discovery of free relations, decomposition into small
// subformulas, and elementary simplification by partial evaluation.

// Substitute replaces every occurrence of the given relations with constant
// expressions holding their extents. This is the subst(φ, C_A) step of
// Alg. 3: A's configuration relations are fixed to their concrete values.
func Substitute(f Formula, fixed map[*Relation]*TupleSet) Formula {
	return substF(f, fixed)
}

func substF(f Formula, fixed map[*Relation]*TupleSet) Formula {
	switch g := f.(type) {
	case *ConstFormula:
		return g
	case *CompFormula:
		l, r := substE(g.l, fixed), substE(g.r, fixed)
		if g.op == opIn {
			return In(l, r)
		}
		return Equals(l, r)
	case *MultFormula:
		e := substE(g.e, fixed)
		return &MultFormula{mult: g.mult, e: e}
	case *NotFormula:
		return Not(substF(g.f, fixed))
	case *NaryFormula:
		fs := make([]Formula, len(g.fs))
		for i, sub := range g.fs {
			fs[i] = substF(sub, fixed)
		}
		switch g.op {
		case OpAnd:
			return And(fs...)
		case OpOr:
			return Or(fs...)
		case OpImplies:
			return Implies(fs[0], fs[1])
		default:
			return Iff(fs[0], fs[1])
		}
	case *QuantFormula:
		decls := make([]Decl, len(g.decls))
		for i, d := range g.decls {
			decls[i] = NewDecl(d.v, substE(d.domain, fixed))
		}
		if g.forall {
			return Forall(decls, substF(g.body, fixed))
		}
		return Exists(decls, substF(g.body, fixed))
	default:
		panic("relational: unknown formula in Substitute")
	}
}

func substE(e Expr, fixed map[*Relation]*TupleSet) Expr {
	switch g := e.(type) {
	case *Relation:
		if ts, ok := fixed[g]; ok {
			return Const(ts)
		}
		return g
	case *Var, *ConstExpr:
		return e
	case *BinExpr:
		l, r := substE(g.l, fixed), substE(g.r, fixed)
		return &BinExpr{op: g.op, l: l, r: r}
	case *TransposeExpr:
		return &TransposeExpr{e: substE(g.e, fixed)}
	case *ComprehensionExpr:
		decls := make([]Decl, len(g.decls))
		for i, d := range g.decls {
			decls[i] = NewDecl(d.v, substE(d.domain, fixed))
		}
		return &ComprehensionExpr{decls: decls, body: substF(g.body, fixed)}
	default:
		panic("relational: unknown expression in Substitute")
	}
}

// FreeRelations returns the set of relations mentioned by f.
func FreeRelations(f Formula) map[*Relation]bool {
	out := make(map[*Relation]bool)
	freeF(f, out)
	return out
}

func freeF(f Formula, out map[*Relation]bool) {
	switch g := f.(type) {
	case *ConstFormula:
	case *CompFormula:
		freeE(g.l, out)
		freeE(g.r, out)
	case *MultFormula:
		freeE(g.e, out)
	case *NotFormula:
		freeF(g.f, out)
	case *NaryFormula:
		for _, sub := range g.fs {
			freeF(sub, out)
		}
	case *QuantFormula:
		for _, d := range g.decls {
			freeE(d.domain, out)
		}
		freeF(g.body, out)
	default:
		panic("relational: unknown formula in FreeRelations")
	}
}

func freeE(e Expr, out map[*Relation]bool) {
	switch g := e.(type) {
	case *Relation:
		out[g] = true
	case *Var, *ConstExpr:
	case *BinExpr:
		freeE(g.l, out)
		freeE(g.r, out)
	case *TransposeExpr:
		freeE(g.e, out)
	case *ComprehensionExpr:
		for _, d := range g.decls {
			freeE(d.domain, out)
		}
		freeF(g.body, out)
	default:
		panic("relational: unknown expression in FreeRelations")
	}
}

// FreeVars returns the variables that occur free in an expression (not
// bound by an enclosing quantifier or comprehension within it).
func FreeVars(e Expr) map[*Var]bool {
	out := make(map[*Var]bool)
	fvE(e, map[*Var]bool{}, out)
	return out
}

// FreeVarsFormula returns the variables occurring free in a formula.
func FreeVarsFormula(f Formula) map[*Var]bool {
	out := make(map[*Var]bool)
	fvF(f, map[*Var]bool{}, out)
	return out
}

func fvF(f Formula, bound, out map[*Var]bool) {
	switch g := f.(type) {
	case *ConstFormula:
	case *CompFormula:
		fvE(g.l, bound, out)
		fvE(g.r, bound, out)
	case *MultFormula:
		fvE(g.e, bound, out)
	case *NotFormula:
		fvF(g.f, bound, out)
	case *NaryFormula:
		for _, sub := range g.fs {
			fvF(sub, bound, out)
		}
	case *QuantFormula:
		inner := copyVarSet(bound)
		for _, d := range g.decls {
			fvE(d.domain, inner, out)
			inner[d.v] = true
		}
		fvF(g.body, inner, out)
	default:
		panic("relational: unknown formula in FreeVars")
	}
}

func fvE(e Expr, bound, out map[*Var]bool) {
	switch g := e.(type) {
	case *Relation, *ConstExpr:
	case *Var:
		if !bound[g] {
			out[g] = true
		}
	case *BinExpr:
		fvE(g.l, bound, out)
		fvE(g.r, bound, out)
	case *TransposeExpr:
		fvE(g.e, bound, out)
	case *ComprehensionExpr:
		inner := copyVarSet(bound)
		for _, d := range g.decls {
			fvE(d.domain, inner, out)
			inner[d.v] = true
		}
		fvF(g.body, inner, out)
	default:
		panic("relational: unknown expression in FreeVars")
	}
}

func copyVarSet(s map[*Var]bool) map[*Var]bool {
	c := make(map[*Var]bool, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Decompose splits a formula into a conjunction of smaller subformulas:
// top-level conjunctions are flattened and universal quantifiers are
// distributed over the conjuncts of their bodies. The conjunction of the
// returned formulas is equivalent to the input. This is the decompose(φ)
// step of Alg. 3.
func Decompose(f Formula) []Formula {
	switch g := f.(type) {
	case *NaryFormula:
		if g.op == OpAnd {
			var out []Formula
			for _, sub := range g.fs {
				out = append(out, Decompose(sub)...)
			}
			return out
		}
	case *QuantFormula:
		if g.forall {
			if body, ok := g.body.(*NaryFormula); ok && body.op == OpAnd {
				var out []Formula
				for _, sub := range body.fs {
					out = append(out, Decompose(Forall(g.decls, sub))...)
				}
				return out
			}
		}
	case *ConstFormula:
		if g.val {
			return nil
		}
	}
	return []Formula{f}
}

// Simplify performs elementary simplifications by partially evaluating
// variable-free, relation-free subterms to constants and folding the
// results through the formula constructors. Additionally, a relation-free
// subformula whose free variables all range over constant quantifier
// domains is folded when it evaluates uniformly across those domains. The
// paper applies exactly such "elementary simplifications" to envelopes
// before presenting them (Fig. 5) and as a mitigation for configuration
// leakage (Sec. 7).
func Simplify(f Formula, u *Universe) Formula {
	s := simplifier{u: u}
	g, _ := s.formula(f)
	return g
}

// simplifier holds Simplify's scope stack: the quantified variables in
// scope, innermost last, each with the constant domain it ranges over
// (nil when the domain is not a constant). A variable denotes its
// innermost binding, so a nested quantifier may bind a *Var again.
type simplifier struct {
	u     *Universe
	scope []varDomain
}

type varDomain struct {
	v   *Var
	dom *TupleSet
}

// push brings v into scope over dom, keeping dom's tuples when it is a
// constant. Scopes end by truncating the stack to its length at entry.
func (s *simplifier) push(v *Var, dom Expr) {
	var ts *TupleSet
	if dc, ok := dom.(*ConstExpr); ok {
		ts = dc.ts
	}
	s.scope = append(s.scope, varDomain{v, ts})
}

// domain returns the constant domain of v's innermost binding, or nil.
func (s *simplifier) domain(v *Var) *TupleSet {
	for i := len(s.scope) - 1; i >= 0; i-- {
		if s.scope[i].v == v {
			return s.scope[i].dom
		}
	}
	return nil
}

// uniformFoldBudget caps the number of bindings tried when folding a
// relation-free subformula across its variables' domains.
const uniformFoldBudget = 4096

// tryUniformFold attempts to replace a relation-free formula with a
// constant by evaluating it under every binding of its free variables to
// their (constant) quantifier domains. It returns the fold and whether it
// applied.
func (s *simplifier) tryUniformFold(f Formula) (Formula, bool) {
	if len(FreeRelations(f)) != 0 {
		return nil, false
	}
	fv := FreeVarsFormula(f)
	vars := make([]*Var, 0, len(fv))
	total := 1
	for v := range fv {
		dom := s.domain(v)
		if dom == nil || dom.Len() == 0 {
			return nil, false
		}
		total *= dom.Len()
		if total > uniformFoldBudget {
			return nil, false
		}
		vars = append(vars, v)
	}
	ev := evaluator{u: s.u}
	var verdict bool
	first := true
	uniform := true
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			got := ev.formula(f)
			if first {
				verdict, first = got, false
			} else if got != verdict {
				uniform = false
			}
			return
		}
		for _, k := range s.domain(vars[i]).keys {
			ev.push(vars[i], int(s.u.byRank[k]))
			rec(i + 1)
			ev.pop()
			if !uniform {
				return
			}
		}
	}
	rec(0)
	if first || !uniform {
		return nil, false
	}
	return constOf(verdict), true
}

// formula returns the simplified formula and whether it is ground
// (contains no relations and no quantified variables), in which case it
// has been folded to a constant.
func (s *simplifier) formula(f Formula) (Formula, bool) {
	u := s.u
	switch g := f.(type) {
	case *ConstFormula:
		return g, true

	case *CompFormula:
		l, lg := s.expr(g.l)
		r, rg := s.expr(g.r)
		if lg && rg {
			ev := evaluator{u: u}
			return constOf(ev.formula(&CompFormula{op: g.op, l: l, r: r})), true
		}
		// x in none ⇒ false when x is provably non-empty is not decidable
		// here, but none in x is always true.
		if lc, ok := l.(*ConstExpr); ok && lc.ts.Len() == 0 && g.op == opIn {
			return trueF, true
		}
		var rebuilt Formula
		if g.op == opIn {
			rebuilt = In(l, r)
		} else {
			rebuilt = Equals(l, r)
		}
		if folded, ok := s.tryUniformFold(rebuilt); ok {
			return folded, true
		}
		return rebuilt, false

	case *MultFormula:
		e, ground := s.expr(g.e)
		if ground {
			ev := evaluator{u: u}
			n := len(ev.expr(e).keys)
			switch g.mult {
			case MultSome:
				return constOf(n > 0), true
			case MultNo:
				return constOf(n == 0), true
			case MultOne:
				return constOf(n == 1), true
			default:
				return constOf(n <= 1), true
			}
		}
		rebuilt := Formula(&MultFormula{mult: g.mult, e: e})
		if folded, ok := s.tryUniformFold(rebuilt); ok {
			return folded, true
		}
		return rebuilt, false

	case *NotFormula:
		inner, ground := s.formula(g.f)
		return Not(inner), ground

	case *NaryFormula:
		fs := make([]Formula, len(g.fs))
		allGround := true
		for i, sub := range g.fs {
			var ground bool
			fs[i], ground = s.formula(sub)
			allGround = allGround && ground
		}
		var out Formula
		switch g.op {
		case OpAnd:
			out = And(fs...)
		case OpOr:
			out = Or(fs...)
		case OpImplies:
			out = Implies(fs[0], fs[1])
		default:
			out = Iff(fs[0], fs[1])
		}
		_, isConst := out.(*ConstFormula)
		return out, allGround || isConst

	case *QuantFormula:
		decls := make([]Decl, len(g.decls))
		mark := len(s.scope)
		for i, d := range g.decls {
			dom, _ := s.expr(d.domain)
			decls[i] = NewDecl(d.v, dom)
			// An empty constant domain collapses the quantifier.
			if dc, ok := dom.(*ConstExpr); ok && dc.ts.Len() == 0 {
				s.scope = s.scope[:mark]
				return constOf(g.forall), true
			}
			s.push(d.v, dom)
		}
		body, _ := s.formula(g.body)
		s.scope = s.scope[:mark]
		if c, ok := body.(*ConstFormula); ok {
			// ∀x|true ≡ true; ∃x|false ≡ false. The other two cases depend
			// on domain non-emptiness, known when domains are constants.
			if c.val == g.forall {
				return constOf(g.forall), true
			}
			allConstNonEmpty := true
			for _, d := range decls {
				dc, ok := d.domain.(*ConstExpr)
				if !ok || dc.ts.Len() == 0 {
					allConstNonEmpty = false
					break
				}
			}
			if allConstNonEmpty {
				return constOf(!g.forall), true
			}
		}
		if g.forall {
			return Forall(decls, body), false
		}
		return Exists(decls, body), false

	default:
		panic("relational: unknown formula in Simplify")
	}
}

// expr simplifies an expression and reports whether it is ground
// (relation- and variable-free); ground expressions fold to constants.
func (s *simplifier) expr(e Expr) (Expr, bool) {
	u := s.u
	switch g := e.(type) {
	case *Relation:
		return g, false
	case *Var:
		return g, false
	case *ConstExpr:
		return g, true

	case *BinExpr:
		l, lg := s.expr(g.l)
		r, rg := s.expr(g.r)
		if lg && rg {
			return fold(&BinExpr{op: g.op, l: l, r: r}, u), true
		}
		// Identity folds against constant operands.
		if lc, lok := l.(*ConstExpr); lok && lc.ts.Len() == 0 {
			switch g.op {
			case opUnion:
				return r, rg
			case opIntersect, opDiff, opProduct, opJoin:
				return emptyConst(u, (&BinExpr{op: g.op, l: l, r: r}).Arity()), true
			}
		}
		if rc, rok := r.(*ConstExpr); rok && rc.ts.Len() == 0 {
			switch g.op {
			case opUnion, opDiff:
				return l, lg
			case opIntersect, opProduct, opJoin:
				return emptyConst(u, (&BinExpr{op: g.op, l: l, r: r}).Arity()), true
			}
		}
		return &BinExpr{op: g.op, l: l, r: r}, false

	case *TransposeExpr:
		inner, ground := s.expr(g.e)
		if ground {
			return fold(&TransposeExpr{e: inner}, u), true
		}
		return &TransposeExpr{e: inner}, false

	case *ComprehensionExpr:
		decls := make([]Decl, len(g.decls))
		mark := len(s.scope)
		for i, d := range g.decls {
			dom, _ := s.expr(d.domain)
			decls[i] = NewDecl(d.v, dom)
			s.push(d.v, dom)
		}
		body, _ := s.formula(g.body)
		s.scope = s.scope[:mark]
		out := &ComprehensionExpr{decls: decls, body: body}
		// A comprehension is ground when all domains are constant, the body
		// mentions no relations, and the body's only free variables are the
		// comprehension's own.
		if len(FreeRelations(body)) == 0 && len(FreeVars(out)) == 0 {
			allConst := true
			for _, d := range decls {
				if _, ok := d.domain.(*ConstExpr); !ok {
					allConst = false
					break
				}
			}
			if allConst {
				return fold(out, u), true
			}
		}
		return out, false

	default:
		panic("relational: unknown expression in Simplify")
	}
}

// fold evaluates a ground expression to a constant. The evaluator's
// result may share an operand constant's keys, which Const copies.
func fold(e Expr, u *Universe) Expr {
	ev := evaluator{u: u}
	ts := ev.expr(e)
	return Const(&ts)
}

func emptyConst(u *Universe, arity int) Expr {
	return Const(NewTupleSet(u, arity))
}

func constOf(b bool) Formula {
	if b {
		return trueF
	}
	return falseF
}
