// Package feder turns the single-process Fig. 9 negotiation loop into a
// fault-tolerant mediator-to-mediator protocol. Each party runs its own
// muppetd holding only its private bundle; a coordinator (the paper's
// trusted mediator) drives propose → envelope → counter-offer rounds over
// HTTP, exchanging envelopes (Alg. 3's necessary-and-sufficient interface
// predicate) and configuration offers — never goals — between parties.
//
// The coordinator runs muppet.Negotiation itself, supplying only each
// party's revision turn: the merged envelope and the joint reconcile are
// computed at the mediator, while the acting party's minimal-edit revision
// runs remotely on its own daemon. A federated run over loopback daemons
// therefore produces the final agreement and rounds of the single-process
// Negotiation on the same bundle split by construction (checked by the
// repository's crosscheck suite).
//
// Robustness: the caller's deadline and sat.Budget carried on every hop,
// idempotency keys so a retried offer applies at most once, exponential
// backoff with jitter honoring Retry-After, a per-peer circuit breaker,
// typed degradation outcomes that report the best partial agreement
// instead of tearing, and an append-only HMAC-signed transcript of every
// round, verifiable offline.
package feder

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"muppet"
	"muppet/internal/mesh"
	"muppet/internal/relational"
)

// Node is one vertex of a serialized relational formula or expression.
// The codec is purely structural: decoding a Node against the same
// System yields a formula structurally identical to the encoded one, so
// translation caches, CNF, and solver verdicts are unchanged by a trip
// over the wire.
type Node struct {
	K  string     `json:"k"`            // node kind (see encode/decode)
	B  bool       `json:"b,omitempty"`  // const value / in-vs-eq / forall-vs-exists
	Op string     `json:"op,omitempty"` // nary, binary, or multiplicity operator
	S  string     `json:"s,omitempty"`  // relation name or variable display name
	V  int        `json:"v,omitempty"`  // variable binding id (per-message scope)
	A  int        `json:"a,omitempty"`  // const-expr arity (tuple sets may be empty)
	TS [][]string `json:"ts,omitempty"` // const-expr tuples as atom-name rows
	D  []*Node    `json:"d,omitempty"`  // quantifier/comprehension declarations
	C  []*Node    `json:"c,omitempty"`  // child formulas/expressions
}

// Vocab resolves relation names and universe atoms when decoding wire
// formulas. Both sides of a federated negotiation must build it from
// equivalent Systems; SystemFingerprint detects drift.
type Vocab struct {
	u    *relational.Universe
	rels map[string]*relational.Relation
}

// NewVocab indexes the System's singleton relations by name.
func NewVocab(sys *muppet.System) *Vocab {
	v := &Vocab{u: sys.Universe, rels: make(map[string]*relational.Relation)}
	for _, r := range systemRelations(sys) {
		v.rels[r.Name()] = r
	}
	return v
}

// systemRelations lists every relation a System formula can mention.
func systemRelations(sys *muppet.System) []*relational.Relation {
	return []*relational.Relation{
		sys.Service, sys.Port, sys.NetPol, sys.AuthPol, sys.NetSel,
		sys.AuthTarget, sys.ActivePorts,
		sys.KInDeny, sys.KInAllow, sys.KEgDeny, sys.KEgAllow,
		sys.IDenyTo, sys.IAllowTo, sys.IDenyFrom, sys.IAllowFrom,
	}
}

// SystemFingerprint digests the shared vocabulary — universe atoms plus
// relation names and arities — so a coordinator and a peer built from
// drifted bundles (different port inventory, renamed services, extra
// policy shells) fail fast at session setup instead of diverging
// mid-negotiation.
func SystemFingerprint(sys *muppet.System) string {
	h := sha256.New()
	for _, a := range sys.Universe.Atoms() {
		fmt.Fprintf(h, "atom %s\n", a)
	}
	for _, r := range systemRelations(sys) {
		fmt.Fprintf(h, "rel %s/%d\n", r.Name(), r.Arity())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encoder assigns stable per-message ids to bound variables.
type encoder struct {
	u    *relational.Universe
	vars map[*relational.Var]int
}

// EncodeFormulas serializes formulas for the wire. Variable identity is
// preserved per call: all formulas in one call share one id scope.
func (v *Vocab) EncodeFormulas(fs []relational.Formula) ([]*Node, error) {
	e := &encoder{u: v.u, vars: make(map[*relational.Var]int)}
	out := make([]*Node, len(fs))
	for i, f := range fs {
		n, err := e.formula(f)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func (e *encoder) formula(f relational.Formula) (*Node, error) {
	switch t := f.(type) {
	case *relational.ConstFormula:
		return &Node{K: "cf", B: t.Value()}, nil
	case *relational.CompFormula:
		l, err := e.expr(t.Left())
		if err != nil {
			return nil, err
		}
		r, err := e.expr(t.Right())
		if err != nil {
			return nil, err
		}
		return &Node{K: "cmp", B: t.IsIn(), C: []*Node{l, r}}, nil
	case *relational.MultFormula:
		x, err := e.expr(t.Expr())
		if err != nil {
			return nil, err
		}
		var op string
		switch t.Mult() {
		case relational.MultSome:
			op = "some"
		case relational.MultNo:
			op = "no"
		case relational.MultOne:
			op = "one"
		case relational.MultLone:
			op = "lone"
		}
		return &Node{K: "mlt", Op: op, C: []*Node{x}}, nil
	case *relational.NotFormula:
		x, err := e.formula(t.Inner())
		if err != nil {
			return nil, err
		}
		return &Node{K: "not", C: []*Node{x}}, nil
	case *relational.NaryFormula:
		var op string
		switch t.Op() {
		case relational.OpAnd:
			op = "and"
		case relational.OpOr:
			op = "or"
		case relational.OpImplies:
			op = "implies"
		case relational.OpIff:
			op = "iff"
		}
		kids := make([]*Node, 0, len(t.Operands()))
		for _, g := range t.Operands() {
			n, err := e.formula(g)
			if err != nil {
				return nil, err
			}
			kids = append(kids, n)
		}
		return &Node{K: "nry", Op: op, C: kids}, nil
	case *relational.QuantFormula:
		ds, err := e.decls(t.Decls())
		if err != nil {
			return nil, err
		}
		body, err := e.formula(t.Body())
		if err != nil {
			return nil, err
		}
		return &Node{K: "qnt", B: t.IsForall(), D: ds, C: []*Node{body}}, nil
	}
	return nil, fmt.Errorf("feder: cannot encode formula %T", f)
}

func (e *encoder) decls(ds []relational.Decl) ([]*Node, error) {
	out := make([]*Node, len(ds))
	for i, d := range ds {
		// The declaration introduces the variable: register its id
		// before encoding the domain (which may reference outer vars).
		id, ok := e.vars[d.Var()]
		if !ok {
			id = len(e.vars) + 1
			e.vars[d.Var()] = id
		}
		dom, err := e.expr(d.Domain())
		if err != nil {
			return nil, err
		}
		out[i] = &Node{K: "dcl", V: id, S: d.Var().Name(), C: []*Node{dom}}
	}
	return out, nil
}

func (e *encoder) expr(x relational.Expr) (*Node, error) {
	switch t := x.(type) {
	case *relational.Var:
		id, ok := e.vars[t]
		if !ok {
			return nil, fmt.Errorf("feder: free variable %q in wire formula", t.Name())
		}
		return &Node{K: "var", V: id, S: t.Name()}, nil
	case *relational.Relation:
		return &Node{K: "rel", S: t.Name()}, nil
	case *relational.ConstExpr:
		ts := t.TupleSet()
		rows := make([][]string, 0, ts.Len())
		for _, tp := range ts.Tuples() {
			row := make([]string, len(tp))
			for i, idx := range tp {
				row[i] = e.u.Atom(idx)
			}
			rows = append(rows, row)
		}
		return &Node{K: "cst", A: ts.Arity(), TS: rows}, nil
	case *relational.BinExpr:
		l, err := e.expr(t.Left())
		if err != nil {
			return nil, err
		}
		r, err := e.expr(t.Right())
		if err != nil {
			return nil, err
		}
		var op string
		switch t.Op() {
		case relational.OpUnion:
			op = "+"
		case relational.OpIntersect:
			op = "&"
		case relational.OpDiff:
			op = "-"
		case relational.OpProduct:
			op = "->"
		case relational.OpJoin:
			op = "."
		}
		return &Node{K: "bin", Op: op, C: []*Node{l, r}}, nil
	case *relational.TransposeExpr:
		inner, err := e.expr(t.Inner())
		if err != nil {
			return nil, err
		}
		return &Node{K: "tsp", C: []*Node{inner}}, nil
	case *relational.ComprehensionExpr:
		ds, err := e.decls(t.Decls())
		if err != nil {
			return nil, err
		}
		body, err := e.formula(t.Body())
		if err != nil {
			return nil, err
		}
		return &Node{K: "cpr", D: ds, C: []*Node{body}}, nil
	}
	return nil, fmt.Errorf("feder: cannot encode expression %T", x)
}

// decoder rebuilds formulas through the public constructors. The
// constructors fold constants and flatten connectives, but any formula
// that was itself built through them is a fixed point of that
// simplification, so decode(encode(f)) is structurally identical to f.
type decoder struct {
	v *Vocab
	// vars maps a wire id to its variable. The encoder gives a variable
	// one id in every scope that binds it, so the map outlives scopes;
	// scope counts the enclosing declarations of each id, and a
	// reference outside all of them is malformed.
	vars  map[int]*relational.Var
	scope map[int]int
}

// DecodeFormulas rebuilds formulas encoded by EncodeFormulas. Malformed
// input surfaces as an error, never a panic: the relational constructors
// panic on arity violations, which decode converts to errors.
func (v *Vocab) DecodeFormulas(ns []*Node) (fs []relational.Formula, err error) {
	defer func() {
		if p := recover(); p != nil {
			fs, err = nil, fmt.Errorf("feder: malformed wire formula: %v", p)
		}
	}()
	d := &decoder{v: v, vars: make(map[int]*relational.Var), scope: make(map[int]int)}
	fs = make([]relational.Formula, len(ns))
	for i, n := range ns {
		f, err := d.formula(n)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

func (d *decoder) formula(n *Node) (relational.Formula, error) {
	if n == nil {
		return nil, fmt.Errorf("feder: nil formula node")
	}
	switch n.K {
	case "cf":
		if n.B {
			return relational.TrueFormula(), nil
		}
		return relational.FalseFormula(), nil
	case "cmp":
		if len(n.C) != 2 {
			return nil, fmt.Errorf("feder: comparison wants 2 children, got %d", len(n.C))
		}
		l, err := d.expr(n.C[0])
		if err != nil {
			return nil, err
		}
		r, err := d.expr(n.C[1])
		if err != nil {
			return nil, err
		}
		if n.B {
			return relational.In(l, r), nil
		}
		return relational.Equals(l, r), nil
	case "mlt":
		if len(n.C) != 1 {
			return nil, fmt.Errorf("feder: multiplicity wants 1 child, got %d", len(n.C))
		}
		x, err := d.expr(n.C[0])
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "some":
			return relational.Some(x), nil
		case "no":
			return relational.No(x), nil
		case "one":
			return relational.One(x), nil
		case "lone":
			return relational.Lone(x), nil
		}
		return nil, fmt.Errorf("feder: unknown multiplicity %q", n.Op)
	case "not":
		if len(n.C) != 1 {
			return nil, fmt.Errorf("feder: negation wants 1 child, got %d", len(n.C))
		}
		x, err := d.formula(n.C[0])
		if err != nil {
			return nil, err
		}
		return relational.Not(x), nil
	case "nry":
		kids := make([]relational.Formula, len(n.C))
		for i, c := range n.C {
			f, err := d.formula(c)
			if err != nil {
				return nil, err
			}
			kids[i] = f
		}
		switch n.Op {
		case "and":
			return relational.And(kids...), nil
		case "or":
			return relational.Or(kids...), nil
		case "implies":
			if len(kids) != 2 {
				return nil, fmt.Errorf("feder: implies wants 2 operands, got %d", len(kids))
			}
			return relational.Implies(kids[0], kids[1]), nil
		case "iff":
			if len(kids) != 2 {
				return nil, fmt.Errorf("feder: iff wants 2 operands, got %d", len(kids))
			}
			return relational.Iff(kids[0], kids[1]), nil
		}
		return nil, fmt.Errorf("feder: unknown connective %q", n.Op)
	case "qnt":
		if len(n.C) != 1 {
			return nil, fmt.Errorf("feder: quantifier wants 1 body, got %d", len(n.C))
		}
		ds, body, err := d.scoped(n.D, n.C[0])
		if err != nil {
			return nil, err
		}
		if n.B {
			return relational.Forall(ds, body), nil
		}
		return relational.Exists(ds, body), nil
	}
	return nil, fmt.Errorf("feder: unknown formula kind %q", n.K)
}

// scoped decodes a quantifier's or comprehension's declarations and body.
// Each declaration's domain sees only the declarations before it, as
// evaluation binds them in order; the body sees them all, and they leave
// scope after it.
func (d *decoder) scoped(ns []*Node, bodyNode *Node) ([]relational.Decl, relational.Formula, error) {
	ds := make([]relational.Decl, len(ns))
	for i, n := range ns {
		if n == nil || n.K != "dcl" || len(n.C) != 1 {
			return nil, nil, fmt.Errorf("feder: malformed declaration node")
		}
		dom, err := d.expr(n.C[0])
		if err != nil {
			return nil, nil, err
		}
		v, ok := d.vars[n.V]
		if !ok {
			v = relational.NewVar(n.S)
			d.vars[n.V] = v
		}
		d.scope[n.V]++
		ds[i] = relational.NewDecl(v, dom)
	}
	body, err := d.formula(bodyNode)
	for _, n := range ns {
		d.scope[n.V]--
	}
	return ds, body, err
}

func (d *decoder) expr(n *Node) (relational.Expr, error) {
	if n == nil {
		return nil, fmt.Errorf("feder: nil expression node")
	}
	switch n.K {
	case "var":
		if d.scope[n.V] == 0 {
			return nil, fmt.Errorf("feder: variable %d (%s) used outside its declaration", n.V, n.S)
		}
		return d.vars[n.V], nil
	case "rel":
		r, ok := d.v.rels[n.S]
		if !ok {
			return nil, fmt.Errorf("feder: unknown relation %q", n.S)
		}
		return r, nil
	case "cst":
		if n.A <= 0 {
			return nil, fmt.Errorf("feder: const expression with arity %d", n.A)
		}
		ts := relational.NewTupleSet(d.v.u, n.A)
		for _, row := range n.TS {
			if len(row) != n.A {
				return nil, fmt.Errorf("feder: tuple %v does not match arity %d", row, n.A)
			}
			for _, a := range row {
				if d.v.u.Index(a) < 0 {
					return nil, fmt.Errorf("feder: unknown atom %q", a)
				}
			}
			ts.AddNames(row...)
		}
		return relational.Const(ts), nil
	case "bin":
		if len(n.C) != 2 {
			return nil, fmt.Errorf("feder: binary expression wants 2 children, got %d", len(n.C))
		}
		l, err := d.expr(n.C[0])
		if err != nil {
			return nil, err
		}
		r, err := d.expr(n.C[1])
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "+":
			return relational.Union(l, r), nil
		case "&":
			return relational.Intersect(l, r), nil
		case "-":
			return relational.Diff(l, r), nil
		case "->":
			return d.fits(relational.Product(l, r))
		case ".":
			return d.fits(relational.Join(l, r))
		}
		return nil, fmt.Errorf("feder: unknown binary operator %q", n.Op)
	case "tsp":
		if len(n.C) != 1 {
			return nil, fmt.Errorf("feder: transpose wants 1 child, got %d", len(n.C))
		}
		x, err := d.expr(n.C[0])
		if err != nil {
			return nil, err
		}
		return relational.Transpose(x), nil
	case "cpr":
		if len(n.C) != 1 {
			return nil, fmt.Errorf("feder: comprehension wants 1 body, got %d", len(n.C))
		}
		ds, body, err := d.scoped(n.D, n.C[0])
		if err != nil {
			return nil, err
		}
		return d.fits(relational.Comprehension(ds, body))
	}
	return nil, fmt.Errorf("feder: unknown expression kind %q", n.K)
}

// fits rejects an expression wider than a tuple set over the universe can
// be (a product, join or comprehension can widen its operands): the
// evaluator could not check it. A wider constant is rejected when
// NewTupleSet panics.
func (d *decoder) fits(x relational.Expr) (relational.Expr, error) {
	if a, max := x.Arity(), d.v.u.MaxArity(); a > max {
		return nil, fmt.Errorf("feder: %d-ary expression over a universe whose tuples hold at most %d atoms", a, max)
	}
	return x, nil
}

// WireEnvelope carries E_{senders→recipient} between mediators. Only the
// conjunction the recipient must satisfy travels; sender obligations stay
// at the mediator.
type WireEnvelope struct {
	From    string  `json:"from"`
	To      string  `json:"to"`
	Clauses []*Node `json:"clauses"`
}

// EncodeEnvelope serializes an envelope for the wire.
func (v *Vocab) EncodeEnvelope(e *muppet.Envelope) (*WireEnvelope, error) {
	cs, err := v.EncodeFormulas(e.Clauses)
	if err != nil {
		return nil, err
	}
	return &WireEnvelope{From: e.From, To: e.To, Clauses: cs}, nil
}

// DecodeEnvelope rebuilds an envelope received from the wire.
func (v *Vocab) DecodeEnvelope(w *WireEnvelope) (*muppet.Envelope, error) {
	cs, err := v.DecodeFormulas(w.Clauses)
	if err != nil {
		return nil, err
	}
	return &muppet.Envelope{From: w.From, To: w.To, Clauses: cs}, nil
}

// WireOffer is one party's configuration offer as it crosses trust
// domains: the current concrete configuration plus which knobs are
// negotiable (the offer mode) — never the party's goals.
type WireOffer struct {
	Party string `json:"party"`
	Kind  string `json:"kind"` // "k8s" or "istio"
	Mode  string `json:"mode"` // "fixed", "soft", or "holes"

	K8s   *mesh.K8sConfig   `json:"k8s,omitempty"`
	Istio *mesh.IstioConfig `json:"istio,omitempty"`

	// Exposure is the Istio side's service→ports map. Whether it is nil
	// is semantically meaningful (nil = every declared port exposed), so
	// HasExposure preserves nil-ness across JSON's omitempty.
	Exposure    map[string][]int `json:"exposure,omitempty"`
	HasExposure bool             `json:"hasExposure,omitempty"`
}

// Digest is a canonical content hash of the offer, used for cheap
// desync detection (peer restarts, lost installs) before heavy rounds.
func (o WireOffer) Digest() string {
	if o.Exposure != nil {
		// Normalize port order so semantically equal offers hash equal.
		norm := make(map[string][]int, len(o.Exposure))
		for k, ps := range o.Exposure {
			cp := append([]int(nil), ps...)
			sort.Ints(cp)
			norm[k] = cp
		}
		o.Exposure = norm
	}
	raw, err := json.Marshal(o)
	if err != nil {
		return "unmarshalable"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// WireEdit is one minimal-edit step, flattened for the wire.
type WireEdit struct {
	Party  string `json:"party"`
	Policy string `json:"policy"`
	Field  uint8  `json:"field"`
	Key    string `json:"key"`
	Add    bool   `json:"add"`
}

// EncodeEdits flattens edits for the wire.
func EncodeEdits(es []muppet.Edit) []WireEdit {
	out := make([]WireEdit, len(es))
	for i, e := range es {
		out[i] = WireEdit{
			Party:  e.Party,
			Policy: e.Knob.Policy,
			Field:  uint8(e.Knob.Field),
			Key:    e.Knob.Key,
			Add:    e.Add,
		}
	}
	return out
}

// DecodeEdits rebuilds edits received from the wire.
func DecodeEdits(ws []WireEdit) []muppet.Edit {
	out := make([]muppet.Edit, len(ws))
	for i, w := range ws {
		out[i] = muppet.Edit{
			Party: w.Party,
			Knob:  muppet.Knob{Policy: w.Policy, Field: muppet.Field(w.Field), Key: w.Key},
			Add:   w.Add,
		}
	}
	return out
}

// --- protocol messages ------------------------------------------------

// JoinRequest opens (or reopens, after a peer restart) a negotiation
// session on a peer mediator.
type JoinRequest struct {
	Session     string `json:"session"`
	Coordinator string `json:"coordinator"`
	Fingerprint string `json:"fingerprint"` // coordinator's SystemFingerprint
	Rounds      int    `json:"rounds"`      // negotiated MaxRounds (informational)
}

// JoinResponse announces the peer's party and its current offer digest.
type JoinResponse struct {
	Party       string `json:"party"`
	Kind        string `json:"kind"`
	Mode        string `json:"mode"`
	Fingerprint string `json:"fingerprint"`
	Digest      string `json:"digest"`
}

// ProposeRequest asks the acting peer to confirm its configuration
// digest before the coordinator spends solver time on the round.
type ProposeRequest struct {
	Session string `json:"session"`
	Round   int    `json:"round"`
}

// ProposeResponse carries the peer's current offer digest.
type ProposeResponse struct {
	Digest string `json:"digest"`
}

// EnvelopeRequest delivers the merged envelope for one round and asks
// the acting party for a counter-offer. Others carries the non-acting
// parties' current offers (configurations and modes, not goals) so the
// peer's minimal-edit search sees the identical workspace the
// single-process loop would.
type EnvelopeRequest struct {
	Session string        `json:"session"`
	Round   int           `json:"round"`
	Idem    string        `json:"idem"` // idempotency key: applied at most once
	Env     *WireEnvelope `json:"env"`
	Others  []WireOffer   `json:"others"`

	// Remaining solver budget, serialized from the coordinator's
	// sat.Budget so a federated round degrades exactly like a local one.
	BudgetMillis    int64 `json:"budgetMillis,omitempty"`
	MaxConflicts    int64 `json:"maxConflicts,omitempty"`
	MaxPropagations int64 `json:"maxPropagations,omitempty"`
}

// CounterOffer results, mirroring muppet.RoundReport.
const (
	ResultConformed     = "conformed"
	ResultRevised       = "revised"
	ResultStuck         = "stuck"
	ResultIndeterminate = "indeterminate"
)

// CounterOffer is the acting party's answer to an envelope: it either
// already conforms, revised its configuration (offer + edits), is stuck
// (with the blame core), or ran out of budget mid-round.
type CounterOffer struct {
	Result   string     `json:"result"`
	Offer    *WireOffer `json:"offer,omitempty"`
	Edits    []WireEdit `json:"edits,omitempty"`
	Feedback []string   `json:"feedback,omitempty"` // unsat core (stuck)
	Stop     int        `json:"stop,omitempty"`     // muppet.StopReason (indeterminate)
}

// InstallRequest sets a peer party's configuration: resynchronization
// after a peer restart, or final delivery of the reconciled agreement.
type InstallRequest struct {
	Session string    `json:"session"`
	Idem    string    `json:"idem"`
	Offer   WireOffer `json:"offer"`
	Final   bool      `json:"final,omitempty"`
}

// InstallResponse echoes the digest of the installed configuration so
// the coordinator can detect torn installs.
type InstallResponse struct {
	Digest string `json:"digest"`
}

// DescribeRequest asks for the peer's rendered configuration.
type DescribeRequest struct {
	Session string `json:"session"`
}

// DescribeResponse is the peer's rendered configuration, byte-identical
// to Party.Describe on the same state.
type DescribeResponse struct {
	Text string `json:"text"`
}

// WireError is the structured error body peers return with non-200
// statuses. Code distinguishes retryable conditions from protocol bugs.
type WireError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// WireError codes.
const (
	ErrCodeUnknownSession = "unknown-session"
	ErrCodeFingerprint    = "fingerprint-mismatch"
	ErrCodeUsage          = "usage"
	ErrCodeInternal       = "internal"
)
