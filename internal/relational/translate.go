package relational

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"muppet/internal/boolcirc"
)

// Tuples, matrices and quantifier environments are the allocation-heavy
// part of grounding: a services-scale bundle touches every subterm under
// thousands of bindings, and the original string-keyed maps built a fresh
// key (and often a fresh tuple) per touch. The translator therefore
// interns tuples once into a flat table — a tuple becomes an int32 id —
// and keys every cache and index by those ids; quantifier environments
// are a dense binding array indexed by variable id with interned
// byte-string keys for the memo tables. A matrix is a slice of cells
// sorted by tuple content, as Kodkod keeps its cells in tuple-index
// order: it is sorted once when built and never modified, so every read
// of a cached matrix walks it in order without sorting it again. Grounding
// allocates only when it encounters a genuinely new tuple, environment or
// subterm.

// matrix is the boolean-matrix denotation of an expression during
// translation: one cell per possibly-present tuple, pairing its interned
// id with the circuit edge that decides it. Tuples that are definitely
// absent have no cell, so no cell holds False.
//
// Invariant: the cells are strictly increasing by tuple content. A matrix
// is built once and never modified afterwards (the expression cache and
// the relation table share it), and get and run binary-search it.
type matrix []cell

type cell struct {
	id int32
	r  boolcirc.Ref
}

// add appends the cell (id, r) unless r is False.
func (m matrix) add(id int32, r boolcirc.Ref) matrix {
	if r == boolcirc.False {
		return m
	}
	return append(m, cell{id: id, r: r})
}

// compare orders two interned tuples of one arity by content.
func (tr *Translator) compare(a, b int32) int {
	if a == b {
		return 0
	}
	return slices.Compare(tr.tuples[a], tr.tuples[b])
}

// sort establishes the matrix invariant on cells built out of order.
func (tr *Translator) sort(m matrix) {
	slices.SortFunc(m, func(a, b cell) int { return tr.compare(a.id, b.id) })
}

// get returns the edge of tuple id in m, or False when m has no cell for it.
func (tr *Translator) get(m matrix, id int32) boolcirc.Ref {
	i, found := slices.BinarySearchFunc(m, tr.tuples[id], func(c cell, t Tuple) int {
		return slices.Compare(tr.tuples[c.id], t)
	})
	if !found {
		return boolcirc.False
	}
	return m[i].r
}

// run returns the cells of m whose tuples start with atom, which the
// content order keeps contiguous.
func (tr *Translator) run(m matrix, atom int) matrix {
	lo := sort.Search(len(m), func(i int) bool { return tr.tuples[m[i].id][0] >= atom })
	hi := lo
	for hi < len(m) && tr.tuples[m[hi].id][0] == atom {
		hi++
	}
	return m[lo:hi]
}

// RelVar associates a free tuple of a relation (in its upper but not lower
// bound) with the circuit variable that decides its presence.
type RelVar struct {
	Tuple Tuple
	Ref   boolcirc.Ref
}

// Translator grounds formulas over fixed bounds into boolean circuits.
// One translator may ground many formulas; relation variables are shared,
// so the resulting circuit edges can be combined (e.g. asserted separately,
// used as assumptions, or targeted by package target).
type Translator struct {
	factory *boolcirc.Factory
	bounds  *Bounds
	relVars map[*Relation][]RelVar
	relMats map[*Relation]matrix
	relIdx  map[*Relation]map[int32]boolcirc.Ref // tuple id → free-tuple variable

	// Tuple interner: tuples[id] is the content of interned tuple id;
	// tupTab is an open-addressed table of id+1 entries (0 = empty) hashed
	// by content.
	tuples  []Tuple
	tupTab  []int32
	tupUsed int

	// Quantifier environments: varIDs gives each *Var a dense id, bind is
	// the current binding per id (atom+1; 0 = unbound), and envIntern maps
	// the packed (id, atom) pairs of a subterm's free variables to a small
	// env id for cache keys. Env id 0 is the empty environment.
	varIDs    map[*Var]int
	bind      []int32
	envIntern map[string]int32
	envScr    []byte

	// Memoisation: grounding re-enters the same subterm under many
	// quantifier bindings, but a subterm's denotation depends only on the
	// bindings of its free variables. Caching on (node, free-var bindings)
	// turns the naive exponential re-translation into Kodkod-style sharing.
	freeE     map[Expr][]int32    // sorted free-variable ids
	freeF     map[Formula][]int32 // sorted free-variable ids
	exprCache map[exprKey]matrix
	formCache map[formKey]boolcirc.Ref

	// Structural cache: top-level formulas that are rebuilt each round
	// (envelope rewrites, recompiled constraints) have fresh node pointers
	// but identical shape. Keying on a structural hash — relations and
	// free variables by identity, bound variables by de-Bruijn position —
	// lets them reuse the previously grounded circuit edge.
	relIDs      map[*Relation]int
	structCache map[string]boolcirc.Ref
	structScr   []byte
	stats       CacheStats
}

// CacheStats counts translation-cache outcomes for top-level Formula calls.
type CacheStats struct {
	// StructHits: structurally identical formula grounded before.
	StructHits int64
	// Misses: full translations performed.
	Misses int64
}

// Hits returns the total number of cache hits.
func (c CacheStats) Hits() int64 { return c.StructHits }

// Cache reports the translator's cache counters.
func (tr *Translator) Cache() CacheStats { return tr.stats }

type exprKey struct {
	e   Expr
	env int32
}

type formKey struct {
	f   Formula
	env int32
}

// envUnbound marks an environment that leaves some free variable of the
// subterm unbound; such translations are not cached (they panic or are
// re-entered under a complete environment later).
const envUnbound int32 = -1

// NewTranslator creates a translator over the given bounds, allocating one
// circuit variable per free tuple of each bound relation.
func NewTranslator(b *Bounds, f *boolcirc.Factory) *Translator {
	tr := &Translator{
		factory: f,
		bounds:  b,
		relVars: make(map[*Relation][]RelVar),
		relMats: make(map[*Relation]matrix),
		relIdx:  make(map[*Relation]map[int32]boolcirc.Ref),

		tupTab: make([]int32, 256),

		varIDs:    make(map[*Var]int),
		envIntern: make(map[string]int32),

		freeE:     make(map[Expr][]int32),
		freeF:     make(map[Formula][]int32),
		exprCache: make(map[exprKey]matrix),
		formCache: make(map[formKey]boolcirc.Ref),

		relIDs:      make(map[*Relation]int),
		structCache: make(map[string]boolcirc.Ref),
	}
	for _, r := range b.Relations() {
		lower := b.Lower(r).keys
		upper := b.Upper(r).keys
		m := make(matrix, 0, len(upper))
		var vars []RelVar
		idx := make(map[int32]boolcirc.Ref)
		t := make(Tuple, r.arity)
		for _, k := range upper {
			b.u.unpack(k, t)
			id := tr.intern(t, nil)
			// lower ⊆ upper, and both are in key order.
			if len(lower) > 0 && lower[0] == k {
				lower = lower[1:]
				m = append(m, cell{id: id, r: boolcirc.True})
				continue
			}
			v := f.Var()
			m = append(m, cell{id: id, r: v})
			vars = append(vars, RelVar{Tuple: tr.tuples[id], Ref: v})
			idx[id] = v
		}
		// The variables follow Upper's order, so RelationVars and the
		// variable numbering do not depend on the matrix order.
		tr.sort(m)
		tr.relVars[r] = vars
		tr.relMats[r] = m
		tr.relIdx[r] = idx
	}
	return tr
}

// Factory returns the circuit factory.
func (tr *Translator) Factory() *boolcirc.Factory { return tr.factory }

// Bounds returns the translation bounds.
func (tr *Translator) Bounds() *Bounds { return tr.bounds }

// RelationVars returns the free-tuple variables of r in deterministic order.
func (tr *Translator) RelationVars(r *Relation) []RelVar { return tr.relVars[r] }

// TupleVar returns the circuit variable deciding tuple t's presence in r,
// in O(1). ok is false when t is not free in r (it is in the lower bound,
// outside the upper bound, or r is unbound).
func (tr *Translator) TupleVar(r *Relation, t Tuple) (boolcirc.Ref, bool) {
	id, ok := tr.lookup(t)
	if !ok {
		return 0, false
	}
	v, ok := tr.relIdx[r][id]
	return v, ok
}

// tupHash mixes tuple content (two concatenated parts) FNV-1a style.
func tupHash(a, b Tuple) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range a {
		h = (h ^ uint64(uint32(x))) * 1099511628211
	}
	for _, x := range b {
		h = (h ^ uint64(uint32(x))) * 1099511628211
	}
	return h
}

func tupMatches(t, a, b Tuple) bool {
	if len(t) != len(a)+len(b) {
		return false
	}
	for i, x := range a {
		if t[i] != x {
			return false
		}
	}
	for i, x := range b {
		if t[len(a)+i] != x {
			return false
		}
	}
	return true
}

// intern returns the id of the tuple a++b, copying the content into the
// flat table only on first encounter. Callers concatenating tuples pass
// the parts directly, so a join or product probes the table without
// building the combined tuple first.
func (tr *Translator) intern(a, b Tuple) int32 {
	mask := uint64(len(tr.tupTab) - 1)
	i := tupHash(a, b) & mask
	for {
		e := tr.tupTab[i]
		if e == 0 {
			break
		}
		if tupMatches(tr.tuples[e-1], a, b) {
			return e - 1
		}
		i = (i + 1) & mask
	}
	t := make(Tuple, 0, len(a)+len(b))
	t = append(t, a...)
	t = append(t, b...)
	tr.tuples = append(tr.tuples, t)
	id := int32(len(tr.tuples) - 1)
	tr.tupTab[i] = id + 1
	tr.tupUsed++
	if tr.tupUsed*4 >= len(tr.tupTab)*3 {
		tr.growTupTab()
	}
	return id
}

func (tr *Translator) growTupTab() {
	old := tr.tupTab
	tr.tupTab = make([]int32, 2*len(old))
	mask := uint64(len(tr.tupTab) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := tupHash(tr.tuples[e-1], nil) & mask
		for tr.tupTab[i] != 0 {
			i = (i + 1) & mask
		}
		tr.tupTab[i] = e
	}
}

// lookup probes for an already-interned tuple without inserting.
func (tr *Translator) lookup(t Tuple) (int32, bool) {
	mask := uint64(len(tr.tupTab) - 1)
	i := tupHash(t, nil) & mask
	for {
		e := tr.tupTab[i]
		if e == 0 {
			return 0, false
		}
		if tupMatches(tr.tuples[e-1], t, nil) {
			return e - 1, true
		}
		i = (i + 1) & mask
	}
}

// Formula grounds f into a circuit edge that is true exactly in the models
// of f within the translator's bounds. Repeated calls are cheap: a
// formula structurally identical to one grounded before — the same node
// again, or one rebuilt from fresh nodes — reuses the prior circuit edge
// (structural cache). The cache keys on shape, never on the caller's
// nodes: a warm session sees fresh goal and envelope nodes on every
// request, and keeping each one would pin every request's formulas for
// the session's lifetime. The tables grow with new formula shapes only.
func (tr *Translator) Formula(f Formula) boolcirc.Ref {
	key := tr.structKey(f)
	if r, hit := tr.structCache[string(key)]; hit {
		tr.stats.StructHits++
		return r
	}
	tr.stats.Misses++
	r := tr.formula(f)
	tr.structCache[string(key)] = r
	return r
}

// structKey serialises a formula's shape into the translator's reusable
// scratch buffer: relations and free variables by translator-scoped
// identity, bound variables by binding position, constant tuple sets by
// content. Two formulas with equal keys ground to the same circuit edge
// under this translator's bounds. The returned bytes alias the scratch —
// valid until the next structKey call; map lookups on string(key) do not
// allocate, and inserts copy.
func (tr *Translator) structKey(f Formula) []byte {
	h := hasher{tr: tr, bound: make(map[*Var]int), b: tr.structScr[:0]}
	h.formula(f)
	tr.structScr = h.b
	return h.b
}

type hasher struct {
	tr    *Translator
	bound map[*Var]int // bound variable → de-Bruijn-style binding index
	next  int
	b     []byte
}

func (h *hasher) relID(r *Relation) int {
	if id, ok := h.tr.relIDs[r]; ok {
		return id
	}
	id := len(h.tr.relIDs)
	h.tr.relIDs[r] = id
	return id
}

func (h *hasher) mark(c byte, n int) {
	h.b = append(h.b, c)
	h.b = strconv.AppendInt(h.b, int64(n), 10)
}

// bind registers decl variables for a scope and returns an undo closure
// (a *Var may be re-bound by a sibling scope; names are not trusted).
func (h *hasher) bind(decls []Decl) func() {
	type saved struct {
		v   *Var
		idx int
		had bool
	}
	prev := make([]saved, len(decls))
	for i, d := range decls {
		idx, had := h.bound[d.v]
		prev[i] = saved{d.v, idx, had}
		h.bound[d.v] = h.next
		h.next++
	}
	return func() {
		for _, p := range prev {
			if p.had {
				h.bound[p.v] = p.idx
			} else {
				delete(h.bound, p.v)
			}
		}
	}
}

func (h *hasher) formula(f Formula) {
	switch g := f.(type) {
	case *ConstFormula:
		if g.val {
			h.b = append(h.b, 'c', '1', ';')
		} else {
			h.b = append(h.b, 'c', '0', ';')
		}
	case *CompFormula:
		h.mark('p', int(g.op))
		h.b = append(h.b, '(')
		h.expr(g.l)
		h.b = append(h.b, ',')
		h.expr(g.r)
		h.b = append(h.b, ')')
	case *MultFormula:
		h.mark('m', int(g.mult))
		h.b = append(h.b, '(')
		h.expr(g.e)
		h.b = append(h.b, ')')
	case *NotFormula:
		h.b = append(h.b, '!', '(')
		h.formula(g.f)
		h.b = append(h.b, ')')
	case *NaryFormula:
		h.mark('n', int(g.op))
		h.b = append(h.b, '(')
		for _, sub := range g.fs {
			h.formula(sub)
			h.b = append(h.b, ',')
		}
		h.b = append(h.b, ')')
	case *QuantFormula:
		if g.forall {
			h.b = append(h.b, 'q', 'a')
		} else {
			h.b = append(h.b, 'q', 'e')
		}
		undo := h.bind(g.decls)
		for _, d := range g.decls {
			h.b = append(h.b, '[')
			h.expr(d.domain)
			h.b = append(h.b, ']')
		}
		h.b = append(h.b, '(')
		h.formula(g.body)
		h.b = append(h.b, ')')
		undo()
	default:
		panic(fmt.Sprintf("relational: unknown formula %T", f))
	}
}

func (h *hasher) expr(ex Expr) {
	switch g := ex.(type) {
	case *Relation:
		h.mark('r', h.relID(g))
		h.b = append(h.b, ';')
	case *Var:
		if idx, ok := h.bound[g]; ok {
			h.mark('v', idx)
		} else {
			// Free variable: identity-keyed, so distinct free variables
			// never alias even if their display names collide.
			h.mark('V', h.tr.varID(g))
		}
		h.b = append(h.b, ';')
	case *ConstExpr:
		// A key names its tuple given the universe's size.
		h.mark('k', g.ts.arity)
		h.mark('/', g.ts.u.Size())
		h.b = append(h.b, '{')
		for _, k := range g.ts.keys {
			h.b = strconv.AppendUint(h.b, k, 10)
			h.b = append(h.b, ';')
		}
		h.b = append(h.b, '}')
	case *BinExpr:
		h.mark('b', int(g.op))
		h.b = append(h.b, '(')
		h.expr(g.l)
		h.b = append(h.b, ',')
		h.expr(g.r)
		h.b = append(h.b, ')')
	case *TransposeExpr:
		h.b = append(h.b, '~', '(')
		h.expr(g.e)
		h.b = append(h.b, ')')
	case *ComprehensionExpr:
		h.b = append(h.b, '{')
		undo := h.bind(g.decls)
		for _, d := range g.decls {
			h.b = append(h.b, '[')
			h.expr(d.domain)
			h.b = append(h.b, ']')
		}
		h.b = append(h.b, '|')
		h.formula(g.body)
		h.b = append(h.b, '}')
		undo()
	default:
		panic(fmt.Sprintf("relational: unknown expression %T", ex))
	}
}

// varID assigns stable identifiers to quantified variables for cache keys
// and binding slots.
func (tr *Translator) varID(v *Var) int {
	if id, ok := tr.varIDs[v]; ok {
		return id
	}
	id := len(tr.varIDs)
	tr.varIDs[v] = id
	tr.bind = append(tr.bind, 0)
	return id
}

// freeIDsF returns the sorted free-variable ids of f, memoised.
func (tr *Translator) freeIDsF(f Formula) []int32 {
	if ids, ok := tr.freeF[f]; ok {
		return ids
	}
	ids := tr.sortedIDs(FreeVarsFormula(f))
	tr.freeF[f] = ids
	return ids
}

// freeIDsE returns the sorted free-variable ids of ex, memoised.
func (tr *Translator) freeIDsE(ex Expr) []int32 {
	if ids, ok := tr.freeE[ex]; ok {
		return ids
	}
	ids := tr.sortedIDs(FreeVars(ex))
	tr.freeE[ex] = ids
	return ids
}

func (tr *Translator) sortedIDs(free map[*Var]bool) []int32 {
	if len(free) == 0 {
		return nil
	}
	ids := make([]int32, 0, len(free))
	for v := range free {
		ids = append(ids, int32(tr.varID(v)))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// envKey interns the current bindings of the given free variables into a
// small id for cache keys; ok is false when some variable is unbound (the
// translation is then not cached — it will panic, or the caller re-enters
// it under a complete environment later).
func (tr *Translator) envKey(ids []int32) (int32, bool) {
	if len(ids) == 0 {
		return 0, true
	}
	b := tr.envScr[:0]
	for _, id := range ids {
		a := tr.bind[id]
		if a == 0 {
			return envUnbound, false
		}
		b = append(b,
			byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
			byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	tr.envScr = b
	if eid, ok := tr.envIntern[string(b)]; ok {
		return eid, true
	}
	eid := int32(len(tr.envIntern) + 1)
	tr.envIntern[string(b)] = eid
	return eid, true
}

func (tr *Translator) formula(f Formula) boolcirc.Ref {
	ek, ok := tr.envKey(tr.freeIDsF(f))
	if !ok {
		return tr.formulaUncached(f)
	}
	key := formKey{f: f, env: ek}
	if r, hit := tr.formCache[key]; hit {
		return r
	}
	r := tr.formulaUncached(f)
	tr.formCache[key] = r
	return r
}

func (tr *Translator) formulaUncached(f Formula) boolcirc.Ref {
	switch g := f.(type) {
	case *ConstFormula:
		return tr.factory.Bool(g.val)

	case *CompFormula:
		lm := tr.expr(g.l)
		rm := tr.expr(g.r)
		sub := func(a, b matrix) boolcirc.Ref {
			conj := make([]boolcirc.Ref, 0, len(a))
			for _, c := range a {
				conj = append(conj, tr.factory.Implies(c.r, tr.get(b, c.id)))
			}
			return tr.factory.And(conj...)
		}
		if g.op == opIn {
			return sub(lm, rm)
		}
		return tr.factory.And(sub(lm, rm), sub(rm, lm))

	case *MultFormula:
		m := tr.expr(g.e)
		refs := make([]boolcirc.Ref, len(m))
		for i, c := range m {
			refs[i] = c.r
		}
		some := tr.factory.Or(refs...)
		switch g.mult {
		case MultSome:
			return some
		case MultNo:
			return some.Not()
		case MultOne:
			return tr.factory.And(some, tr.atMostOne(refs))
		case MultLone:
			return tr.atMostOne(refs)
		}
		panic("relational: unknown multiplicity")

	case *NotFormula:
		return tr.formula(g.f).Not()

	case *NaryFormula:
		switch g.op {
		case OpAnd:
			refs := make([]boolcirc.Ref, len(g.fs))
			for i, sub := range g.fs {
				refs[i] = tr.formula(sub)
			}
			return tr.factory.And(refs...)
		case OpOr:
			refs := make([]boolcirc.Ref, len(g.fs))
			for i, sub := range g.fs {
				refs[i] = tr.formula(sub)
			}
			return tr.factory.Or(refs...)
		case OpImplies:
			return tr.factory.Implies(tr.formula(g.fs[0]), tr.formula(g.fs[1]))
		case OpIff:
			return tr.factory.Iff(tr.formula(g.fs[0]), tr.formula(g.fs[1]))
		}
		panic("relational: unknown connective")

	case *QuantFormula:
		return tr.quant(g, g.decls)

	default:
		panic(fmt.Sprintf("relational: unknown formula %T", f))
	}
}

// quant grounds one quantifier declaration at a time, so later domains may
// mention earlier variables. Bindings mutate the dense binding array and
// are restored on exit; grounding is strictly nested, so no environment
// copies are needed.
func (tr *Translator) quant(q *QuantFormula, decls []Decl) boolcirc.Ref {
	if len(decls) == 0 {
		return tr.formula(q.body)
	}
	d := decls[0]
	dom := tr.expr(d.domain)
	vid := tr.varID(d.v)
	saved := tr.bind[vid]
	parts := make([]boolcirc.Ref, 0, len(dom))
	for _, c := range dom {
		tr.bind[vid] = int32(tr.tuples[c.id][0]) + 1
		inner := tr.quant(q, decls[1:])
		if q.forall {
			parts = append(parts, tr.factory.Implies(c.r, inner))
		} else {
			parts = append(parts, tr.factory.And(c.r, inner))
		}
	}
	tr.bind[vid] = saved
	if q.forall {
		return tr.factory.And(parts...)
	}
	return tr.factory.Or(parts...)
}

// atMostOne encodes pairwise mutual exclusion over the given edges.
func (tr *Translator) atMostOne(refs []boolcirc.Ref) boolcirc.Ref {
	conj := make([]boolcirc.Ref, 0, len(refs)*(len(refs)-1)/2)
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			conj = append(conj, tr.factory.And(refs[i], refs[j]).Not())
		}
	}
	return tr.factory.And(conj...)
}

func (tr *Translator) expr(ex Expr) matrix {
	ek, ok := tr.envKey(tr.freeIDsE(ex))
	if !ok {
		return tr.exprUncached(ex)
	}
	key := exprKey{e: ex, env: ek}
	if m, hit := tr.exprCache[key]; hit {
		return m
	}
	m := tr.exprUncached(ex)
	tr.exprCache[key] = m
	return m
}

func (tr *Translator) exprUncached(ex Expr) matrix {
	switch g := ex.(type) {
	case *Relation:
		m, ok := tr.relMats[g]
		if !ok {
			panic(fmt.Sprintf("relational: relation %s has no bounds", g.name))
		}
		return m

	case *Var:
		a := tr.bind[tr.varID(g)]
		if a == 0 {
			panic(fmt.Sprintf("relational: unbound variable %s", g.name))
		}
		atom := [1]int{int(a - 1)}
		return matrix{{id: tr.intern(atom[:], nil), r: boolcirc.True}}

	case *ConstExpr:
		m := make(matrix, 0, g.ts.Len())
		t := make(Tuple, g.ts.arity)
		for _, k := range g.ts.keys {
			g.ts.u.unpack(k, t)
			m = append(m, cell{id: tr.intern(t, nil), r: boolcirc.True})
		}
		tr.sort(m)
		return m

	case *BinExpr:
		lm := tr.expr(g.l)
		rm := tr.expr(g.r)
		switch g.op {
		case opUnion:
			// Merge the operands. Each cell of rm costs one Or, in rm's
			// order; cells only in lm are copied.
			m := make(matrix, 0, len(lm)+len(rm))
			i := 0
			for _, c := range rm {
				for i < len(lm) && tr.compare(lm[i].id, c.id) < 0 {
					m = append(m, lm[i])
					i++
				}
				l := boolcirc.False
				if i < len(lm) && lm[i].id == c.id {
					l = lm[i].r
					i++
				}
				m = m.add(c.id, tr.factory.Or(l, c.r))
			}
			return append(m, lm[i:]...)
		case opIntersect:
			m := make(matrix, 0, len(lm))
			for _, c := range lm {
				m = m.add(c.id, tr.factory.And(c.r, tr.get(rm, c.id)))
			}
			return m
		case opDiff:
			m := make(matrix, 0, len(lm))
			for _, c := range lm {
				m = m.add(c.id, tr.factory.And(c.r, tr.get(rm, c.id).Not()))
			}
			return m
		case opProduct:
			// Concatenating sorted left and right tuples, left-major,
			// yields content order.
			m := make(matrix, 0, len(lm)*len(rm))
			for _, a := range lm {
				at := tr.tuples[a.id]
				for _, b := range rm {
					m = m.add(tr.intern(at, tr.tuples[b.id]), tr.factory.And(a.r, b.r))
				}
			}
			return m
		case opJoin:
			return tr.join(lm, rm)
		}
		panic("relational: unknown binary expression")

	case *TransposeExpr:
		im := tr.expr(g.e)
		m := make(matrix, 0, len(im))
		for _, c := range im {
			t := tr.tuples[c.id]
			flipped := [2]int{t[1], t[0]}
			m = append(m, cell{id: tr.intern(flipped[:], nil), r: c.r})
		}
		tr.sort(m)
		return m

	case *ComprehensionExpr:
		var m matrix
		var prefix [8]int
		tr.comprehension(g, g.decls, prefix[:0], boolcirc.True, &m)
		return m

	default:
		panic(fmt.Sprintf("relational: unknown expression %T", ex))
	}
}

// joinTerm is one conjunct of a join output: the And of a left and a
// right cell that meet on the middle atom, numbered by build order.
type joinTerm struct {
	id  int32 // output tuple
	seq int32
	r   boolcirc.Ref
}

// join grounds lm.rm. Each left cell meets the run of right cells that
// starts with its last atom; an output tuple is the Or of its meetings.
// The factory sees one And per meeting, in lm's order and then the run's,
// and then one Or per output over its Ands in build order, the outputs
// taken in the order they were first met.
func (tr *Translator) join(lm, rm matrix) matrix {
	var terms []joinTerm
	for _, a := range lm {
		at := tr.tuples[a.id]
		for _, b := range tr.run(rm, at[len(at)-1]) {
			id := tr.intern(at[:len(at)-1], tr.tuples[b.id][1:])
			terms = append(terms, joinTerm{id: id, seq: int32(len(terms)), r: tr.factory.And(a.r, b.r)})
		}
	}
	// Sorted by output content and then build order, each output's terms
	// form one group that starts with its first meeting.
	slices.SortFunc(terms, func(x, y joinTerm) int {
		if c := tr.compare(x.id, y.id); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	var starts []int
	for i := range terms {
		if i == 0 || terms[i].id != terms[i-1].id {
			starts = append(starts, i)
		}
	}
	// Or each group in first-met order, leaving the result in its first
	// term.
	met := slices.Clone(starts)
	slices.SortFunc(met, func(i, j int) int { return cmp.Compare(terms[i].seq, terms[j].seq) })
	var refs []boolcirc.Ref
	for _, lo := range met {
		refs = refs[:0]
		for i := lo; i < len(terms) && terms[i].id == terms[lo].id; i++ {
			refs = append(refs, terms[i].r)
		}
		terms[lo].r = tr.factory.Or(refs...)
	}
	m := make(matrix, 0, len(starts))
	for _, lo := range starts {
		m = m.add(terms[lo].id, terms[lo].r)
	}
	return m
}

// comprehension enumerates candidate bindings for the declarations,
// accumulating membership guards, and emits one cell per full binding.
// The prefix is a shared scratch stack; tuples are only materialised (via
// interning) at full bindings.
func (tr *Translator) comprehension(c *ComprehensionExpr, decls []Decl, prefix []int, guard boolcirc.Ref, out *matrix) {
	if len(decls) == 0 {
		// Domains are unary, so full bindings arrive distinct and in
		// content order: each is a new cell appended in place.
		id := tr.intern(prefix, nil)
		*out = out.add(id, tr.factory.And(guard, tr.formula(c.body)))
		return
	}
	d := decls[0]
	dom := tr.expr(d.domain)
	vid := tr.varID(d.v)
	saved := tr.bind[vid]
	for _, x := range dom {
		t := tr.tuples[x.id]
		tr.bind[vid] = int32(t[0]) + 1
		tr.comprehension(c, decls[1:],
			append(prefix, t...),
			tr.factory.And(guard, x.r),
			out)
	}
	tr.bind[vid] = saved
}
