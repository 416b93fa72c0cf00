// Package encode bridges the microservices domain (package mesh) and the
// relational logic (package relational): it fixes a logical vocabulary for
// a given mesh — atoms for services, ports, and policy objects; exact
// relations for the immutable structure; free relations for each party's
// configurable policy contents — and compiles administrator goals (package
// goals) into relational formulas over that vocabulary.
//
// The central invariant, enforced by differential tests, is that the
// FlowAllowed formula agrees with mesh.Allowed on every total
// configuration: the logic means what the runtime does.
package encode

import (
	"fmt"
	"sort"
	"strconv"

	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/relational"
)

// System fixes the logical vocabulary for one mesh plus policy shells.
// Policy shells (names and selectors) are structure; only rule contents
// (which ports/services appear in allow/deny lists) are configurable.
//
// A System is immutable after NewSystem returns and therefore safe to
// share across goroutines: every method (NewBounds, goal compilation,
// SharedTupleSets, …) builds and returns fresh values, never memoizing
// into the receiver. Concurrent query serving relies on this — one System
// is shared by all workers, while Parties, Sessions, and SolveCaches stay
// per-worker (see muppet.FanOut). The guarantee is exercised under the
// race detector by TestConcurrentQueries in the muppet package.
type System struct {
	Mesh     *mesh.Mesh
	Universe *relational.Universe

	// Port inventory: the bounded set of ports the logic ranges over.
	PortList []int

	// Policy shells, in declaration order.
	K8sShells   []*mesh.NetworkPolicy
	IstioShells []*mesh.AuthorizationPolicy

	// Structural relations (bound exactly).
	Service    *relational.Relation // unary: services
	Port       *relational.Relation // unary: ports
	NetPol     *relational.Relation // unary: K8s policy objects
	AuthPol    *relational.Relation // unary: Istio policy objects
	NetSel     *relational.Relation // NetPol×Service: policy selects service
	AuthTarget *relational.Relation // AuthPol×Service: policy targets service

	// ActivePorts (Service×Port) is which ports each service exposes. It
	// belongs to the Istio administrator's configurable domain: the mesh
	// team owns service manifests, and the paper's Fig. 4 walkthrough has
	// the synthesizer re-choose exposed ports ("it doesn't matter which
	// port is exposed so long as the frontend is reachable"). Fig. 5's
	// envelope accordingly speaks of dst.active_ports as part of the
	// Istio-side vocabulary.
	ActivePorts *relational.Relation

	// K8s-configurable relations (NetPol×Port).
	KInDeny, KInAllow, KEgDeny, KEgAllow *relational.Relation

	// Istio-configurable relations.
	IDenyTo, IAllowTo     *relational.Relation // AuthPol×Port
	IDenyFrom, IAllowFrom *relational.Relation // AuthPol×Service

	// Each party's configurable knobs, recorded once (see knobTable).
	k8sKnobs, istioKnobs knobTable
}

// NewSystem builds the vocabulary for a mesh, policy shells, and any extra
// ports the goals mention beyond the services' listening ports.
func NewSystem(m *mesh.Mesh, k8sShells []*mesh.NetworkPolicy, istioShells []*mesh.AuthorizationPolicy, extraPorts []int) (*System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	portSet := make(map[int]bool)
	for _, p := range m.Ports() {
		portSet[p] = true
	}
	for _, p := range extraPorts {
		portSet[p] = true
	}
	for _, sh := range k8sShells {
		for _, ps := range [][]int{sh.IngressDenyPorts, sh.IngressAllowPorts, sh.EgressDenyPorts, sh.EgressAllowPorts} {
			for _, p := range ps {
				portSet[p] = true
			}
		}
	}
	for _, sh := range istioShells {
		for _, ps := range [][]int{sh.DenyToPorts, sh.AllowToPorts} {
			for _, p := range ps {
				portSet[p] = true
			}
		}
	}
	ports := make([]int, 0, len(portSet))
	for p := range portSet {
		ports = append(ports, p)
	}
	sort.Ints(ports)

	var atoms []string
	for _, s := range m.Services {
		atoms = append(atoms, s.Name)
	}
	for _, p := range ports {
		atoms = append(atoms, portAtom(p))
	}
	seenPol := make(map[string]bool)
	for _, sh := range k8sShells {
		if seenPol["np:"+sh.Name] {
			return nil, fmt.Errorf("encode: duplicate NetworkPolicy %q", sh.Name)
		}
		seenPol["np:"+sh.Name] = true
		atoms = append(atoms, "np:"+sh.Name)
	}
	for _, sh := range istioShells {
		if seenPol["ap:"+sh.Name] {
			return nil, fmt.Errorf("encode: duplicate AuthorizationPolicy %q", sh.Name)
		}
		seenPol["ap:"+sh.Name] = true
		atoms = append(atoms, "ap:"+sh.Name)
	}

	sys := &System{
		Mesh:        m,
		Universe:    relational.NewUniverse(atoms...),
		PortList:    ports,
		K8sShells:   k8sShells,
		IstioShells: istioShells,

		Service:     relational.NewRelation("Service", 1),
		Port:        relational.NewRelation("Port", 1),
		ActivePorts: relational.NewRelation("active_ports", 2),
		NetPol:      relational.NewRelation("NetworkPolicy", 1),
		AuthPol:     relational.NewRelation("AuthPolicy", 1),
		NetSel:      relational.NewRelation("selects", 2),
		AuthTarget:  relational.NewRelation("target", 2),

		KInDeny:  relational.NewRelation("k8s_ingress_deny_ports", 2),
		KInAllow: relational.NewRelation("k8s_ingress_allow_ports", 2),
		KEgDeny:  relational.NewRelation("k8s_egress_deny_ports", 2),
		KEgAllow: relational.NewRelation("k8s_egress_allow_ports", 2),

		IDenyTo:   relational.NewRelation("deny_to_ports", 2),
		IAllowTo:  relational.NewRelation("allow_to_ports", 2),
		IDenyFrom: relational.NewRelation("deny_from_service", 2),
		IAllowFrom: relational.NewRelation(
			"allow_from_service", 2),
	}
	sys.buildKnobTables()
	return sys, nil
}

func portAtom(p int) string { return "port:" + strconv.Itoa(p) }

// HasPort reports whether the port is in the system's bounded inventory.
func (sys *System) HasPort(p int) bool {
	return sys.Universe.Index(portAtom(p)) >= 0
}

// ServiceConst returns the scalar constant for a service.
func (sys *System) ServiceConst(name string) relational.Expr {
	return relational.ConstAtom(sys.Universe, name)
}

// PortConst returns the scalar constant for a port.
func (sys *System) PortConst(p int) relational.Expr {
	return relational.ConstAtom(sys.Universe, portAtom(p))
}

// NewBounds creates bounds with every structural relation bound exactly.
// Configurable relations are added by BindK8s/BindIstio and their
// variants.
func (sys *System) NewBounds() *relational.Bounds {
	u := sys.Universe
	b := relational.NewBounds(u)

	svc := relational.NewTupleSet(u, 1)
	for _, s := range sys.Mesh.Services {
		svc.AddNames(s.Name)
	}
	b.BoundExactly(sys.Service, svc)

	ports := relational.NewTupleSet(u, 1)
	for _, p := range sys.PortList {
		ports.AddNames(portAtom(p))
	}
	b.BoundExactly(sys.Port, ports)

	np := relational.NewTupleSet(u, 1)
	nsel := relational.NewTupleSet(u, 2)
	for _, sh := range sys.K8sShells {
		np.AddNames("np:" + sh.Name)
		for _, s := range sys.Mesh.Services {
			if sh.Selects(s) {
				nsel.AddNames("np:"+sh.Name, s.Name)
			}
		}
	}
	b.BoundExactly(sys.NetPol, np)
	b.BoundExactly(sys.NetSel, nsel)

	ap := relational.NewTupleSet(u, 1)
	atgt := relational.NewTupleSet(u, 2)
	for _, sh := range sys.IstioShells {
		ap.AddNames("ap:" + sh.Name)
		for _, s := range sys.Mesh.Services {
			if sh.Targets(s) {
				atgt.AddNames("ap:"+sh.Name, s.Name)
			}
		}
	}
	b.BoundExactly(sys.AuthPol, ap)
	b.BoundExactly(sys.AuthTarget, atgt)
	return b
}

// K8sRelations returns the K8s administrator's configuration domain —
// exactly the relations Alg. 3's dom() test consults.
func (sys *System) K8sRelations() []*relational.Relation {
	return []*relational.Relation{sys.KInDeny, sys.KInAllow, sys.KEgDeny, sys.KEgAllow}
}

// IstioRelations returns the Istio administrator's configuration domain,
// which includes service port exposure (see the ActivePorts field).
func (sys *System) IstioRelations() []*relational.Relation {
	return []*relational.Relation{sys.ActivePorts, sys.IDenyTo, sys.IAllowTo, sys.IDenyFrom, sys.IAllowFrom}
}

// --- traffic semantics as formulas (the Fig. 5 shape) ---

// selPols returns the comprehension {p: NetPol | p selects svc}.
func (sys *System) selPols(svc relational.Expr) relational.Expr {
	p := relational.NewVar("np")
	return relational.Comprehension(
		[]relational.Decl{relational.NewDecl(p, sys.NetPol)},
		relational.In(relational.Product(p, svc), sys.NetSel))
}

// targetPols returns the comprehension {p: AuthPol | p targets svc} —
// Fig. 5's "{egress: AuthPolicy | egress.target in src.labels}".
func (sys *System) targetPols(svc relational.Expr) relational.Expr {
	p := relational.NewVar("ap")
	return relational.Comprehension(
		[]relational.Decl{relational.NewDecl(p, sys.AuthPol)},
		relational.In(relational.Product(p, svc), sys.AuthTarget))
}

// blockedBy encodes the shared deny-overrides-with-implicit-deny pattern:
// item is blocked by the policies pols under (deny, allow) relations when
// it is explicitly denied, or some allow entry exists and item is not in
// the allowed union — Fig. 5's disjunct pairs (2,3) and (4,5).
func blockedBy(pols relational.Expr, deny, allow *relational.Relation, item relational.Expr) relational.Formula {
	denied := relational.In(item, relational.Join(pols, deny))
	allowedUnion := relational.Join(pols, allow)
	implicit := relational.And(
		relational.Some(allowedUnion),
		relational.Not(relational.In(item, allowedUnion)),
	)
	return relational.Or(denied, implicit)
}

// K8sEgressBlocked is the formula: K8s policy blocks src sending to port.
func (sys *System) K8sEgressBlocked(src, port relational.Expr) relational.Formula {
	return blockedBy(sys.selPols(src), sys.KEgDeny, sys.KEgAllow, port)
}

// K8sIngressBlocked is the formula: K8s policy blocks dst receiving on port.
func (sys *System) K8sIngressBlocked(dst, port relational.Expr) relational.Formula {
	return blockedBy(sys.selPols(dst), sys.KInDeny, sys.KInAllow, port)
}

// IstioEgressBlocked is the formula: Istio policy blocks src sending to
// port (Fig. 5 disjuncts 2–3).
func (sys *System) IstioEgressBlocked(src, port relational.Expr) relational.Formula {
	return blockedBy(sys.targetPols(src), sys.IDenyTo, sys.IAllowTo, port)
}

// IstioIngressBlocked is the formula: Istio policy blocks dst receiving
// from src (Fig. 5 disjuncts 4–5).
func (sys *System) IstioIngressBlocked(dst, src relational.Expr) relational.Formula {
	return blockedBy(sys.targetPols(dst), sys.IDenyFrom, sys.IAllowFrom, src)
}

// Listens is the formula: dst listens on port (Fig. 5 disjunct 1 negated).
func (sys *System) Listens(dst, port relational.Expr) relational.Formula {
	return relational.In(port, relational.Join(dst, sys.ActivePorts))
}

// FlowAllowed is the composed-system admission formula for a flow from src
// to dst on destination port: the destination listens and neither party
// blocks. Source ports do not participate in policy admission (see package
// goals).
func (sys *System) FlowAllowed(src, dst, port relational.Expr) relational.Formula {
	return relational.And(
		sys.Listens(dst, port),
		relational.Not(sys.K8sEgressBlocked(src, port)),
		relational.Not(sys.K8sIngressBlocked(dst, port)),
		relational.Not(sys.IstioEgressBlocked(src, port)),
		relational.Not(sys.IstioIngressBlocked(dst, src)),
	)
}

// FlowBlocked is the negation of FlowAllowed in the disjunctive shape the
// paper's Fig. 5 presents: not listening, or blocked by one of the four
// policy checks.
func (sys *System) FlowBlocked(src, dst, port relational.Expr) relational.Formula {
	return relational.Or(
		relational.Not(sys.Listens(dst, port)),
		sys.K8sEgressBlocked(src, port),
		sys.K8sIngressBlocked(dst, port),
		sys.IstioEgressBlocked(src, port),
		sys.IstioIngressBlocked(dst, src),
	)
}

// --- goal compilation ---

// selectedServices returns the constant set of services matching a goal
// selector.
func (sys *System) selectedServices(sel map[string]string) *relational.TupleSet {
	ts := relational.NewTupleSet(sys.Universe, 1)
	for _, s := range sys.Mesh.Services {
		if s.HasLabels(sel) {
			ts.AddNames(s.Name)
		}
	}
	return ts
}

// CompileK8sGoal translates one Fig. 2 row into a formula. A DENY row
// demands every flow to a selected destination on the port be blocked; an
// ALLOW row demands every flow to a selected, listening destination on the
// port be admitted.
func (sys *System) CompileK8sGoal(g goals.K8sGoal) (relational.Formula, error) {
	if !sys.HasPort(g.Port) {
		return nil, fmt.Errorf("encode: goal port %d not in the system's port inventory", g.Port)
	}
	port := sys.PortConst(g.Port)
	src := relational.NewVar("src")
	dst := relational.NewVar("dst")
	dstDomain := sys.selectedServices(g.Selector)
	if g.Allow {
		// Restrict to listening destinations: ALLOW cannot create ports.
		listening := relational.NewTupleSet(sys.Universe, 1)
		for _, s := range sys.Mesh.Services {
			if s.HasLabels(g.Selector) && s.Listens(g.Port) {
				listening.AddNames(s.Name)
			}
		}
		return relational.Forall(
			[]relational.Decl{
				relational.NewDecl(src, sys.Service),
				relational.NewDecl(dst, relational.Const(listening)),
			},
			sys.FlowAllowed(src, dst, port)), nil
	}
	return relational.Forall(
		[]relational.Decl{
			relational.NewDecl(src, sys.Service),
			relational.NewDecl(dst, relational.Const(dstDomain)),
		},
		sys.FlowBlocked(src, dst, port)), nil
}

// CompileK8sGoals conjoins a K8s goal table.
func (sys *System) CompileK8sGoals(gs []goals.K8sGoal) (relational.Formula, error) {
	fs := make([]relational.Formula, 0, len(gs))
	for _, g := range gs {
		f, err := sys.CompileK8sGoal(g)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return relational.And(fs...), nil
}

// CompileIstioGoals translates a Figs. 3/4 table into one formula. Rows
// are conjoined; existential port variables are shared across rows and
// quantified over the port inventory, so the solver chooses their values
// (Fig. 4). `*` cells become fresh anonymous variables. DENY rows negate
// the flow admission; `*` service cells quantify universally for DENY rows
// and produce one requirement per service for ALLOW rows.
func (sys *System) CompileIstioGoals(gs []goals.IstioGoal) (relational.Formula, error) {
	varByName := make(map[string]*relational.Var)
	var decls []relational.Decl
	freshCount := 0
	portTermExpr := func(t goals.PortTerm) (relational.Expr, error) {
		switch t.Kind {
		case goals.PortLit:
			if !sys.HasPort(t.Port) {
				return nil, fmt.Errorf("encode: goal port %d not in the system's port inventory", t.Port)
			}
			return sys.PortConst(t.Port), nil
		case goals.PortVar:
			v, ok := varByName[t.Var]
			if !ok {
				v = relational.NewVar("?" + t.Var)
				varByName[t.Var] = v
				decls = append(decls, relational.NewDecl(v, sys.Port))
			}
			return v, nil
		default: // PortAny: fresh anonymous existential
			freshCount++
			v := relational.NewVar(fmt.Sprintf("?any%d", freshCount))
			decls = append(decls, relational.NewDecl(v, sys.Port))
			return v, nil
		}
	}

	serviceExprs := func(name string) ([]relational.Expr, error) {
		if name == "*" {
			out := make([]relational.Expr, 0, len(sys.Mesh.Services))
			for _, s := range sys.Mesh.Services {
				out = append(out, sys.ServiceConst(s.Name))
			}
			return out, nil
		}
		if sys.Mesh.Service(name) == nil {
			return nil, fmt.Errorf("encode: unknown service %q in goal", name)
		}
		return []relational.Expr{sys.ServiceConst(name)}, nil
	}

	// Each row also records which declared variables it mentions, so the
	// final formula can be miniscoped: rows sharing variables form
	// connected components, and each component is wrapped in its own
	// existential over just its variables. Without this, grounding the
	// joint ∃v1…vn would enumerate the full |Port|^n product even when
	// the variables are independent (as in Fig. 4, where none are shared).
	type row struct {
		f    relational.Formula
		vars map[*relational.Var]bool
	}
	var rows []row
	for _, g := range gs {
		rowVars := make(map[*relational.Var]bool)
		noteVar := func(e relational.Expr) {
			if v, ok := e.(*relational.Var); ok {
				rowVars[v] = true
			}
		}
		// Source ports do not constrain admission but still bind variables.
		srcPort, err := portTermExpr(g.SrcPort)
		if err != nil {
			return nil, err
		}
		noteVar(srcPort)
		srcs, err := serviceExprs(g.Src)
		if err != nil {
			return nil, err
		}
		dsts, err := serviceExprs(g.Dst)
		if err != nil {
			return nil, err
		}
		// A DENY row with a `*` destination port means "blocked on every
		// port", so it quantifies universally rather than binding a fresh
		// existential.
		var dstPort relational.Expr
		var rowForall []relational.Decl
		if !g.Allow && g.DstPort.Kind == goals.PortAny {
			v := relational.NewVar("anyport")
			rowForall = []relational.Decl{relational.NewDecl(v, sys.Port)}
			dstPort = v
		} else {
			dstPort, err = portTermExpr(g.DstPort)
			if err != nil {
				return nil, err
			}
			noteVar(dstPort)
		}
		for _, s := range srcs {
			for _, d := range dsts {
				if g.Allow {
					rows = append(rows, row{f: sys.FlowAllowed(s, d, dstPort), vars: rowVars})
				} else {
					rows = append(rows, row{
						f:    relational.Forall(rowForall, sys.FlowBlocked(s, d, dstPort)),
						vars: rowVars,
					})
				}
			}
		}
	}

	// Union-find over rows connected through shared variables.
	parent := make([]int, len(rows))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	varRow := make(map[*relational.Var]int)
	for i, r := range rows {
		for v := range r.vars {
			if j, seen := varRow[v]; seen {
				parent[find(i)] = find(j)
			} else {
				varRow[v] = i
			}
		}
	}
	comps := make(map[int][]int)
	var order []int
	for i := range rows {
		root := find(i)
		if _, seen := comps[root]; !seen {
			order = append(order, root)
		}
		comps[root] = append(comps[root], i)
	}

	var parts []relational.Formula
	for _, root := range order {
		var fs []relational.Formula
		compVars := make(map[*relational.Var]bool)
		for _, i := range comps[root] {
			fs = append(fs, rows[i].f)
			for v := range rows[i].vars {
				compVars[v] = true
			}
		}
		// Preserve the global declaration order within the component.
		var compDecls []relational.Decl
		for _, d := range decls {
			if compVars[d.Var()] {
				compDecls = append(compDecls, d)
			}
		}
		parts = append(parts, relational.Exists(compDecls, relational.And(fs...)))
	}

	return relational.And(parts...), nil
}
