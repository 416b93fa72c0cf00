package encode

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"muppet/internal/mesh"
	"muppet/internal/relational"
)

// Field identifies one configurable policy table.
type Field uint8

// Configurable fields: four per party, plus port exposure on the Istio
// side (the Knob.Policy of an exposure knob names a service, not a
// policy).
const (
	FieldKIngressDeny Field = iota
	FieldKIngressAllow
	FieldKEgressDeny
	FieldKEgressAllow
	FieldIDenyTo
	FieldIAllowTo
	FieldIDenyFrom
	FieldIAllowFrom
	FieldExposure
)

func (f Field) String() string {
	switch f {
	case FieldKIngressDeny:
		return "ingress.denyPorts"
	case FieldKIngressAllow:
		return "ingress.allowPorts"
	case FieldKEgressDeny:
		return "egress.denyPorts"
	case FieldKEgressAllow:
		return "egress.allowPorts"
	case FieldIDenyTo:
		return "deny_to_ports"
	case FieldIAllowTo:
		return "allow_to_ports"
	case FieldIDenyFrom:
		return "deny_from_service"
	case FieldIAllowFrom:
		return "allow_from_service"
	case FieldExposure:
		return "active_ports"
	}
	return "unknown-field"
}

// Knob addresses one boolean configuration decision: whether Key (a port in
// decimal, or a service name) appears in Field of the named policy. The
// wildcard "*" Key addresses every key of the field.
type Knob struct {
	Policy string
	Field  Field
	Key    string
}

func (k Knob) String() string {
	return fmt.Sprintf("%s.%s[%s]", k.Policy, k.Field, k.Key)
}

// PortKnob builds a knob addressing a port-valued field entry.
func PortKnob(policy string, field Field, port int) Knob {
	return Knob{Policy: policy, Field: field, Key: strconv.Itoa(port)}
}

// ServiceKnob builds a knob addressing a service-valued field entry.
func ServiceKnob(policy string, field Field, service string) Knob {
	return Knob{Policy: policy, Field: field, Key: service}
}

// WildcardKnob addresses every entry of a policy field.
func WildcardKnob(policy string, field Field) Knob {
	return Knob{Policy: policy, Field: field, Key: "*"}
}

// Offer is a partial configuration in the paper's sense (the C?? of
// Fig. 6): concrete proposed values plus two kinds of leeway. Knobs listed
// in Holes are unconstrained ("holes" for autocompletion); knobs in Soft
// carry their concrete value as a preference the solver may override
// ("soft" settings open to automated compromise). Everything else is
// fixed.
type Offer struct {
	Holes []Knob
	Soft  []Knob
}

// AllSoft returns an offer marking every knob soft: a full configuration
// entirely open to negotiation.
func AllSoft() Offer {
	return Offer{Soft: []Knob{{Policy: "*", Key: "*"}}}
}

// AllHoles returns an offer marking every knob a hole: complete flexibility
// (an "empty C??").
func AllHoles() Offer {
	return Offer{Holes: []Knob{{Policy: "*", Key: "*"}}}
}

// matches reports whether knob k addresses (policy, field, key), honouring
// "*" wildcards for Policy and Key. A wildcard-policy knob matches any
// policy; the Field matters only when set meaningfully — the catch-all
// knobs produced by AllSoft/AllHoles match every field via MatchAllFields.
func (k Knob) matches(policy string, field Field, key string) bool {
	if k.Policy != "*" && k.Policy != policy {
		return false
	}
	if k.Key != "*" && k.Key != key {
		return false
	}
	if k.Policy == "*" && k.Key == "*" {
		return true // catch-all from AllSoft/AllHoles
	}
	return k.Field == field
}

// TupleState classifies one configurable tuple within an offer.
type TupleState uint8

// Tuple states.
const (
	StateFixed TupleState = iota // value taken from the concrete config
	StateSoft                    // free, concrete value is the target
	StateHole                    // free, no preference
)

// KnobInfo records the disposition of one configurable tuple, used for
// target-oriented solving, feedback, and decoding.
type KnobInfo struct {
	Knob    Knob
	Rel     *relational.Relation
	Tuple   relational.Tuple
	State   TupleState
	Desired bool // the concrete config's value (meaningful for Fixed/Soft)
}

// OfferMap indexes the knob dispositions produced when an offer is bound.
type OfferMap struct {
	Infos []KnobInfo
}

// SoftInfos returns the soft knobs (targets for minimal-edit search).
func (om *OfferMap) SoftInfos() []KnobInfo {
	var out []KnobInfo
	for _, ki := range om.Infos {
		if ki.State == StateSoft {
			out = append(out, ki)
		}
	}
	return out
}

// HoleInfos returns the hole knobs.
func (om *OfferMap) HoleInfos() []KnobInfo {
	var out []KnobInfo
	for _, ki := range om.Infos {
		if ki.State == StateHole {
			out = append(out, ki)
		}
	}
	return out
}

// state resolves the disposition of one knob against an offer.
func (o Offer) state(policy string, field Field, key string) TupleState {
	for _, k := range o.Holes {
		if k.matches(policy, field, key) {
			return StateHole
		}
	}
	for _, k := range o.Soft {
		if k.matches(policy, field, key) {
			return StateSoft
		}
	}
	return StateFixed
}

// fieldSpan is the stretch of a knob table that holds one field's knobs:
// owner by owner (policy shells, or services for exposure), one knob per
// key (inventory port, or service) within each owner.
type fieldSpan struct {
	field      Field
	rel        *relational.Relation
	start, end int
}

// knobTable lists every configurable tuple of one party's domain in
// binding order: field by field, then owner by owner, then key by key.
// Each entry carries its knob, relation and tuple; State and Desired stay
// zero, for classification to fill in on a copy. NewSystem builds the
// table once and never changes it, so every worker of the System shares
// it, tuples and key strings included. Its order fixes the order of the
// bounds, the soft literals and the fixed groups, and so the answers.
type knobTable struct {
	infos []KnobInfo
	spans []fieldSpan
}

// buildKnobTables records both parties' knob tables. Key strings and atom
// indices are computed once per port, service and shell, and each field's
// tuples are carved out of one backing array.
func (sys *System) buildKnobTables() {
	// axis is one dimension of a field: names (policies, services or
	// port keys) and the atoms they stand for.
	type axis struct {
		names []string
		atoms []int
	}
	newAxis := func(prefix string, names []string) axis {
		a := axis{names: names, atoms: make([]int, len(names))}
		for i, n := range names {
			a.atoms[i] = sys.Universe.MustIndex(prefix + n)
		}
		return a
	}
	var portKeys, svcNames, npNames, apNames []string
	for _, p := range sys.PortList {
		portKeys = append(portKeys, strconv.Itoa(p))
	}
	for _, svc := range sys.Mesh.Services {
		svcNames = append(svcNames, svc.Name)
	}
	for _, sh := range sys.K8sShells {
		npNames = append(npNames, sh.Name)
	}
	for _, sh := range sys.IstioShells {
		apNames = append(apNames, sh.Name)
	}
	ports, svcs := newAxis("port:", portKeys), newAxis("", svcNames)
	nps, aps := newAxis("np:", npNames), newAxis("ap:", apNames)

	add := func(t *knobTable, f Field, rel *relational.Relation, owners, keys axis) {
		sp := fieldSpan{field: f, rel: rel, start: len(t.infos)}
		flat := make(relational.Tuple, 0, 2*len(owners.names)*len(keys.names))
		for i, owner := range owners.names {
			for j, key := range keys.names {
				flat = append(flat, owners.atoms[i], keys.atoms[j])
				t.infos = append(t.infos, KnobInfo{
					Knob:  Knob{Policy: owner, Field: f, Key: key},
					Rel:   rel,
					Tuple: flat[len(flat)-2 : len(flat) : len(flat)],
				})
			}
		}
		sp.end = len(t.infos)
		t.spans = append(t.spans, sp)
	}
	k8s, istio := &sys.k8sKnobs, &sys.istioKnobs
	add(k8s, FieldKIngressDeny, sys.KInDeny, nps, ports)
	add(k8s, FieldKIngressAllow, sys.KInAllow, nps, ports)
	add(k8s, FieldKEgressDeny, sys.KEgDeny, nps, ports)
	add(k8s, FieldKEgressAllow, sys.KEgAllow, nps, ports)
	add(istio, FieldIDenyTo, sys.IDenyTo, aps, ports)
	add(istio, FieldIAllowTo, sys.IAllowTo, aps, ports)
	add(istio, FieldExposure, sys.ActivePorts, svcs, ports)
	add(istio, FieldIDenyFrom, sys.IDenyFrom, aps, svcs)
	add(istio, FieldIAllowFrom, sys.IAllowFrom, aps, svcs)
}

// ClassifyK8s classifies every K8s knob of the system under offer, with
// Desired taken from cfg (a policy missing from cfg counts as empty). It
// copies the system's knob table into dst's storage, growing it only if
// it is too small, and fills in State and Desired; nothing else is
// allocated. The returned knobs share their tuples and key strings with
// the table: callers must not modify them.
func (sys *System) ClassifyK8s(dst []KnobInfo, cfg *mesh.K8sConfig, offer Offer) []KnobInfo {
	dst = append(dst[:0], sys.k8sKnobs.infos...)
	np := len(sys.PortList)
	for _, sp := range sys.k8sKnobs.spans {
		for i, shell := range sys.K8sShells {
			var current []int
			if cp := cfg.Policy(shell.Name); cp != nil {
				current = k8sPorts(cp, sp.field)
			}
			markPorts(dst[sp.start+i*np:][:np], sys.PortList, current)
		}
	}
	classifyStates(dst, offer)
	return dst
}

// ClassifyIstio is ClassifyK8s for the Istio knobs. exposure overrides
// the services' listening ports as the exposure knobs' desired values
// (nil = the mesh's current ports; a service absent from a non-nil map
// exposes nothing).
func (sys *System) ClassifyIstio(dst []KnobInfo, cfg *mesh.IstioConfig, exposure map[string][]int, offer Offer) []KnobInfo {
	dst = append(dst[:0], sys.istioKnobs.infos...)
	np, ns := len(sys.PortList), len(sys.Mesh.Services)
	for _, sp := range sys.istioKnobs.spans {
		if sp.field == FieldExposure {
			for i, svc := range sys.Mesh.Services {
				ports := svc.Ports
				if exposure != nil {
					ports = exposure[svc.Name]
				}
				markPorts(dst[sp.start+i*np:][:np], sys.PortList, ports)
			}
			continue
		}
		for i, shell := range sys.IstioShells {
			cp := cfg.Policy(shell.Name)
			switch sp.field {
			case FieldIDenyFrom, FieldIAllowFrom:
				var current []string
				if cp != nil {
					current = istioServices(cp, sp.field)
				}
				run := dst[sp.start+i*ns:][:ns]
				for j, svc := range sys.Mesh.Services {
					run[j].Desired = containsStr(current, svc.Name)
				}
			default:
				var current []int
				if cp != nil {
					current = istioPorts(cp, sp.field)
				}
				markPorts(dst[sp.start+i*np:][:np], sys.PortList, current)
			}
		}
	}
	classifyStates(dst, offer)
	return dst
}

// markPorts sets each knob of run, one per inventory port, desired
// exactly when its port is in present.
func markPorts(run []KnobInfo, ports, present []int) {
	for i, p := range ports {
		run[i].Desired = containsInt(present, p)
	}
}

// classifyStates resolves each knob's disposition against the offer.
func classifyStates(infos []KnobInfo, offer Offer) {
	for i := range infos {
		k := &infos[i].Knob
		infos[i].State = offer.state(k.Policy, k.Field, k.Key)
	}
}

func k8sPorts(p *mesh.NetworkPolicy, f Field) []int {
	switch f {
	case FieldKIngressDeny:
		return p.IngressDenyPorts
	case FieldKIngressAllow:
		return p.IngressAllowPorts
	case FieldKEgressDeny:
		return p.EgressDenyPorts
	}
	return p.EgressAllowPorts
}

func istioPorts(p *mesh.AuthorizationPolicy, f Field) []int {
	if f == FieldIDenyTo {
		return p.DenyToPorts
	}
	return p.AllowToPorts
}

func istioServices(p *mesh.AuthorizationPolicy, f Field) []string {
	if f == FieldIDenyFrom {
		return p.DenyFromServices
	}
	return p.AllowFromServices
}

// bindKnobs bounds every relation of table t from infos, t's entries
// classified (by ClassifyK8s or ClassifyIstio). A soft or hole knob's
// tuple is free: it joins the upper bound only. A fixed knob's tuple is
// free too unless pin is set; then it is in both bounds when desired and
// in neither otherwise. A relation with no knobs is bound empty.
func (sys *System) bindKnobs(b *relational.Bounds, t *knobTable, infos []KnobInfo, pin bool) {
	for _, sp := range t.spans {
		lower := relational.NewTupleSet(sys.Universe, 2)
		upper := relational.NewTupleSet(sys.Universe, 2)
		for i := sp.start; i < sp.end; i++ {
			ki := &infos[i]
			if pin && ki.State == StateFixed {
				if ki.Desired {
					lower.Add(ki.Tuple)
					upper.Add(ki.Tuple)
				}
			} else {
				upper.Add(ki.Tuple)
			}
		}
		b.Bound(sp.rel, lower, upper)
	}
}

// BindK8sDomain binds the K8s configurable relations with every tuple
// free: lower bounds empty, upper bounds the whole knob table. These are
// the bounds BindK8sFree produces for any configuration and offer, so a
// session binds them once and classifies each call's offer with
// ClassifyK8s.
func (sys *System) BindK8sDomain(b *relational.Bounds) {
	sys.bindKnobs(b, &sys.k8sKnobs, sys.k8sKnobs.infos, false)
}

// BindIstioDomain is BindK8sDomain for the Istio relations.
func (sys *System) BindIstioDomain(b *relational.Bounds) {
	sys.bindKnobs(b, &sys.istioKnobs, sys.istioKnobs.infos, false)
}

// BindK8s applies a K8s offer to bounds: for each configurable (policy,
// key) tuple, fixed knobs pin the tuple to the concrete config's value,
// soft and hole knobs leave it free. cfg must contain a policy for every
// shell (match by name); missing policies are treated as empty.
func (sys *System) BindK8s(b *relational.Bounds, cfg *mesh.K8sConfig, offer Offer) *OfferMap {
	om := &OfferMap{Infos: sys.ClassifyK8s(nil, cfg, offer)}
	sys.bindKnobs(b, &sys.k8sKnobs, om.Infos, true)
	return om
}

// BindK8sFree is BindK8s but leaves every tuple free in the bounds, as
// BindK8sDomain does; the returned OfferMap still classifies knobs per the
// offer. Workflow code enforces fixed settings through retractable
// selector clauses instead of bounds, so unsat cores can blame
// configuration fragments; it binds once per session with BindK8sDomain
// and classifies per call with ClassifyK8s, which this combines.
func (sys *System) BindK8sFree(b *relational.Bounds, cfg *mesh.K8sConfig, offer Offer) *OfferMap {
	om := &OfferMap{Infos: sys.ClassifyK8s(nil, cfg, offer)}
	sys.BindK8sDomain(b)
	return om
}

// BindIstio applies an Istio offer to bounds, analogously to BindK8s.
func (sys *System) BindIstio(b *relational.Bounds, cfg *mesh.IstioConfig, offer Offer) *OfferMap {
	om := &OfferMap{Infos: sys.ClassifyIstio(nil, cfg, nil, offer)}
	sys.bindKnobs(b, &sys.istioKnobs, om.Infos, true)
	return om
}

// BindIstioFree is BindIstio but leaves every tuple free in the bounds;
// see BindK8sFree.
func (sys *System) BindIstioFree(b *relational.Bounds, cfg *mesh.IstioConfig, offer Offer) *OfferMap {
	om := &OfferMap{Infos: sys.ClassifyIstio(nil, cfg, nil, offer)}
	sys.BindIstioDomain(b)
	return om
}

// DecodeK8s reconstructs a concrete K8s configuration from an instance.
func (sys *System) DecodeK8s(inst *relational.Instance) *mesh.K8sConfig {
	cfg := &mesh.K8sConfig{}
	for _, shell := range sys.K8sShells {
		p := &mesh.NetworkPolicy{Name: shell.Name, Selector: cloneLabels(shell.Selector)}
		p.IngressDenyPorts = sys.decodePorts(inst, sys.KInDeny, "np:"+shell.Name)
		p.IngressAllowPorts = sys.decodePorts(inst, sys.KInAllow, "np:"+shell.Name)
		p.EgressDenyPorts = sys.decodePorts(inst, sys.KEgDeny, "np:"+shell.Name)
		p.EgressAllowPorts = sys.decodePorts(inst, sys.KEgAllow, "np:"+shell.Name)
		cfg.Policies = append(cfg.Policies, p)
	}
	return cfg
}

// DecodeIstio reconstructs a concrete Istio configuration from an instance.
func (sys *System) DecodeIstio(inst *relational.Instance) *mesh.IstioConfig {
	cfg := &mesh.IstioConfig{}
	for _, shell := range sys.IstioShells {
		p := &mesh.AuthorizationPolicy{Name: shell.Name, Target: cloneLabels(shell.Target)}
		p.DenyToPorts = sys.decodePorts(inst, sys.IDenyTo, "ap:"+shell.Name)
		p.AllowToPorts = sys.decodePorts(inst, sys.IAllowTo, "ap:"+shell.Name)
		p.DenyFromServices = sys.decodeServices(inst, sys.IDenyFrom, "ap:"+shell.Name)
		p.AllowFromServices = sys.decodeServices(inst, sys.IAllowFrom, "ap:"+shell.Name)
		cfg.Policies = append(cfg.Policies, p)
	}
	return cfg
}

func (sys *System) decodePorts(inst *relational.Instance, rel *relational.Relation, polAtom string) []int {
	var out []int
	polIdx := sys.Universe.MustIndex(polAtom)
	for _, t := range inst.Get(rel).Tuples() {
		if t[0] != polIdx {
			continue
		}
		name := sys.Universe.Atom(t[1])
		p, err := strconv.Atoi(strings.TrimPrefix(name, "port:"))
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func (sys *System) decodeServices(inst *relational.Instance, rel *relational.Relation, polAtom string) []string {
	var out []string
	polIdx := sys.Universe.MustIndex(polAtom)
	for _, t := range inst.Get(rel).Tuples() {
		if t[0] == polIdx {
			out = append(out, sys.Universe.Atom(t[1]))
		}
	}
	sort.Strings(out)
	return out
}

// ConfigTupleSets returns the extents of concrete configurations as tuple
// sets keyed by relation — the C_A that Alg. 3 substitutes. Pass nil for a
// party not being fixed. exposure overrides the mesh's current listening
// ports (nil = mesh defaults); it is consulted only when the Istio party
// is present, since port exposure belongs to the Istio domain.
func (sys *System) ConfigTupleSets(k8s *mesh.K8sConfig, istio *mesh.IstioConfig, exposure map[string][]int) map[*relational.Relation]*relational.TupleSet {
	out := make(map[*relational.Relation]*relational.TupleSet)
	// Entries outside the bounded inventory (a port no goal, shell or
	// service mentions) have no logical counterpart and are skipped.
	add2 := func(rel *relational.Relation, polAtom, keyAtom string) {
		if sys.Universe.Index(keyAtom) < 0 {
			return
		}
		ts, ok := out[rel]
		if !ok {
			ts = relational.NewTupleSet(sys.Universe, 2)
			out[rel] = ts
		}
		ts.AddNames(polAtom, keyAtom)
	}
	ensure := func(rels ...*relational.Relation) {
		for _, r := range rels {
			if _, ok := out[r]; !ok {
				out[r] = relational.NewTupleSet(sys.Universe, 2)
			}
		}
	}
	if k8s != nil {
		ensure(sys.KInDeny, sys.KInAllow, sys.KEgDeny, sys.KEgAllow)
		for _, shell := range sys.K8sShells {
			cp := k8s.Policy(shell.Name)
			if cp == nil {
				continue
			}
			for _, p := range cp.IngressDenyPorts {
				add2(sys.KInDeny, "np:"+shell.Name, portAtom(p))
			}
			for _, p := range cp.IngressAllowPorts {
				add2(sys.KInAllow, "np:"+shell.Name, portAtom(p))
			}
			for _, p := range cp.EgressDenyPorts {
				add2(sys.KEgDeny, "np:"+shell.Name, portAtom(p))
			}
			for _, p := range cp.EgressAllowPorts {
				add2(sys.KEgAllow, "np:"+shell.Name, portAtom(p))
			}
		}
	}
	if istio != nil {
		ensure(sys.IDenyTo, sys.IAllowTo, sys.IDenyFrom, sys.IAllowFrom, sys.ActivePorts)
		for _, svc := range sys.Mesh.Services {
			ports := svc.Ports
			if exposure != nil {
				ports = exposure[svc.Name]
			}
			for _, p := range ports {
				add2(sys.ActivePorts, svc.Name, portAtom(p))
			}
		}
		for _, shell := range sys.IstioShells {
			cp := istio.Policy(shell.Name)
			if cp == nil {
				continue
			}
			for _, p := range cp.DenyToPorts {
				add2(sys.IDenyTo, "ap:"+shell.Name, portAtom(p))
			}
			for _, p := range cp.AllowToPorts {
				add2(sys.IAllowTo, "ap:"+shell.Name, portAtom(p))
			}
			for _, s := range cp.DenyFromServices {
				add2(sys.IDenyFrom, "ap:"+shell.Name, s)
			}
			for _, s := range cp.AllowFromServices {
				add2(sys.IAllowFrom, "ap:"+shell.Name, s)
			}
		}
	}
	return out
}

// SenderTupleSets returns everything that is fixed from one party's point
// of view when computing an envelope it sends (Alg. 3's C_A): the party's
// configuration tables plus its structural vocabulary (policy objects and
// their selector extents), so that substitution and simplification can
// fold the sender's side away entirely. Shared structure (Service, Port)
// and the recipient's relations stay symbolic.
func (sys *System) SenderTupleSets(k8s *mesh.K8sConfig, istio *mesh.IstioConfig, exposure map[string][]int) map[*relational.Relation]*relational.TupleSet {
	out := sys.ConfigTupleSets(k8s, istio, exposure)
	b := sys.NewBounds()
	if k8s != nil {
		out[sys.NetPol] = b.Lower(sys.NetPol)
		out[sys.NetSel] = b.Lower(sys.NetSel)
	}
	if istio != nil {
		out[sys.AuthPol] = b.Lower(sys.AuthPol)
		out[sys.AuthTarget] = b.Lower(sys.AuthTarget)
	}
	return out
}

// SharedTupleSets returns the public shared structure: the Service and
// Port inventories. See envelope.Options.Shared.
func (sys *System) SharedTupleSets() map[*relational.Relation]*relational.TupleSet {
	b := sys.NewBounds()
	return map[*relational.Relation]*relational.TupleSet{
		sys.Service: b.Lower(sys.Service),
		sys.Port:    b.Lower(sys.Port),
	}
}

// InstanceFor builds the full relational instance corresponding to concrete
// configurations: structure plus both parties' tables. exposure overrides
// service listening ports (nil = mesh defaults). Useful for checking
// formulas (envelopes, goals) against configurations without solving.
func (sys *System) InstanceFor(k8s *mesh.K8sConfig, istio *mesh.IstioConfig, exposure map[string][]int) *relational.Instance {
	if k8s == nil {
		k8s = &mesh.K8sConfig{}
	}
	if istio == nil {
		istio = &mesh.IstioConfig{}
	}
	b := sys.NewBounds()
	inst := relational.NewInstance(sys.Universe)
	for _, r := range b.Relations() {
		inst.Set(r, b.Lower(r))
	}
	for rel, ts := range sys.ConfigTupleSets(k8s, istio, exposure) {
		inst.Set(rel, ts)
	}
	return inst
}

// DecodeExposure reconstructs each service's exposed ports from an
// instance's ActivePorts extent.
func (sys *System) DecodeExposure(inst *relational.Instance) map[string][]int {
	out := make(map[string][]int, len(sys.Mesh.Services))
	for _, svc := range sys.Mesh.Services {
		out[svc.Name] = []int{}
	}
	for _, t := range inst.Get(sys.ActivePorts).Tuples() {
		name := sys.Universe.Atom(t[0])
		p, err := strconv.Atoi(strings.TrimPrefix(sys.Universe.Atom(t[1]), "port:"))
		if err != nil {
			continue
		}
		out[name] = append(out[name], p)
	}
	for name := range out {
		sort.Ints(out[name])
	}
	return out
}

// MeshWith returns a copy of the system's mesh with service listening
// ports replaced by the given exposure (services absent from the map keep
// an empty port list).
func (sys *System) MeshWith(exposure map[string][]int) *mesh.Mesh {
	out := &mesh.Mesh{}
	for _, svc := range sys.Mesh.Services {
		out.Services = append(out.Services, &mesh.Service{
			Name:   svc.Name,
			Labels: cloneLabels(svc.Labels),
			Ports:  append([]int(nil), exposure[svc.Name]...),
		})
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func cloneLabels(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
