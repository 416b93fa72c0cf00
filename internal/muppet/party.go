// Package muppet implements the paper's solver-aided multi-party
// configuration workflows: local consistency (Alg. 1), reconciliation
// (Alg. 2), envelope computation (Alg. 3 via package envelope), the
// conformance workflow (Fig. 7) with its revision aid (Fig. 8), and the
// round-robin negotiation workflow (Fig. 9), generalised to N ≥ 2 parties
// as Sec. 7 sketches.
//
// The algorithms are domain-generic over a Party abstraction; constructors
// for the paper's two concrete administrators (Kubernetes and Istio over a
// shared service mesh) are provided.
package muppet

import (
	"fmt"

	"muppet/internal/encode"
	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/relational"
)

// NamedGoal pairs a goal formula with the display name used in blame
// feedback (typically the CSV row it came from).
type NamedGoal struct {
	Name    string
	Formula relational.Formula
}

// Party is one administrator in a multi-party configuration workflow. A
// party owns a configuration domain (a set of relations), a goal set, and
// an offer: a concrete configuration plus the leeway (soft/hole knobs)
// granted to the solver. Parties are mutable across negotiation rounds —
// revisions replace goals and offers.
//
// A solving session splits a party in two. Its domain's bounds leave
// every knob free and depend only on the System, so the session binds
// them once, when it is built (bindDomain). Its offer and configuration
// change between calls, so each call classifies the knobs afresh
// (classify) against the System's shared knob table.
type Party struct {
	Name string

	// Goals are the party's behavioural requirements φ.
	Goals []NamedGoal

	// Domain is dom(party): the relations this party configures.
	Domain []*relational.Relation

	// bindDomain binds the party's configurable relations fully free in
	// the bounds.
	bindDomain func(*relational.Bounds)

	// classify returns the party's knobs classified per its current offer
	// and configuration, reusing dst's storage (see
	// encode.System.ClassifyK8s).
	classify func(dst []encode.KnobInfo) []encode.KnobInfo

	// fixed returns the party's concrete settings (plus its private
	// structure) for envelope substitution.
	fixed func() map[*relational.Relation]*relational.TupleSet

	// adopt replaces the party's concrete configuration from a solved
	// instance (used when delivering results and for counter-offers).
	adopt func(*relational.Instance)

	// describe renders the party's current concrete configuration.
	describe func() string
}

// Fixed exposes the party's concrete settings for envelope computation.
func (p *Party) Fixed() map[*relational.Relation]*relational.TupleSet { return p.fixed() }

// Adopt installs a solved instance as the party's concrete configuration
// (the "Deliver C_A, C_B" step of Figs. 7 and 9).
func (p *Party) Adopt(inst *relational.Instance) { p.adopt(inst) }

// Describe renders the party's current concrete configuration.
func (p *Party) Describe() string { return p.describe() }

// GoalFormulas returns the bare formulas of the party's goals.
func (p *Party) GoalFormulas() []relational.Formula {
	out := make([]relational.Formula, len(p.Goals))
	for i, g := range p.Goals {
		out[i] = g.Formula
	}
	return out
}

// K8sPartyState is the mutable state behind a Kubernetes party.
type K8sPartyState struct {
	Sys    *encode.System
	Config *mesh.K8sConfig
	Offer  encode.Offer
}

// NewK8sParty builds the Kubernetes administrator party from goal rows, a
// concrete configuration and an offer. The returned state allows revising
// the configuration/offer between rounds.
func NewK8sParty(sys *encode.System, cfg *mesh.K8sConfig, offer encode.Offer, rows []goals.K8sGoal) (*Party, *K8sPartyState, error) {
	st := &K8sPartyState{Sys: sys, Config: mesh.CloneK8s(cfg), Offer: offer}
	p := &Party{
		Name:       "K8s",
		Domain:     sys.K8sRelations(),
		bindDomain: sys.BindK8sDomain,
		classify: func(dst []encode.KnobInfo) []encode.KnobInfo {
			return sys.ClassifyK8s(dst, st.Config, st.Offer)
		},
		fixed: func() map[*relational.Relation]*relational.TupleSet {
			return sys.SenderTupleSets(st.Config, nil, nil)
		},
		adopt: func(inst *relational.Instance) {
			st.Config = sys.DecodeK8s(inst)
		},
		describe: func() string { return mesh.DescribeK8s(st.Config) },
	}
	gs, err := NamedK8sGoals(sys, rows)
	if err != nil {
		return nil, nil, err
	}
	p.Goals = gs
	return p, st, nil
}

// NamedK8sGoals compiles a K8s goal table into the goals a K8s party
// carries, one per row, each named after its row for blame feedback.
func NamedK8sGoals(sys *encode.System, rows []goals.K8sGoal) ([]NamedGoal, error) {
	var out []NamedGoal
	for _, row := range rows {
		f, err := sys.CompileK8sGoal(row)
		if err != nil {
			return nil, fmt.Errorf("muppet: K8s goal %s: %w", row, err)
		}
		out = append(out, NamedGoal{Name: "k8s-goal[" + row.String() + "]", Formula: f})
	}
	return out, nil
}

// IstioPartyState is the mutable state behind an Istio party. Exposure
// (service listening ports) is part of the Istio domain; nil means the
// mesh's current ports.
type IstioPartyState struct {
	Sys      *encode.System
	Config   *mesh.IstioConfig
	Exposure map[string][]int
	Offer    encode.Offer
}

// NewIstioParty builds the Istio administrator party. Goal rows are
// compiled as one joint formula, because existential port variables span
// rows (Fig. 4).
func NewIstioParty(sys *encode.System, cfg *mesh.IstioConfig, offer encode.Offer, rows []goals.IstioGoal) (*Party, *IstioPartyState, error) {
	st := &IstioPartyState{Sys: sys, Config: mesh.CloneIstio(cfg), Offer: offer}
	p := &Party{
		Name:       "Istio",
		Domain:     sys.IstioRelations(),
		bindDomain: sys.BindIstioDomain,
		classify: func(dst []encode.KnobInfo) []encode.KnobInfo {
			return sys.ClassifyIstio(dst, st.Config, st.Exposure, st.Offer)
		},
		fixed: func() map[*relational.Relation]*relational.TupleSet {
			return sys.SenderTupleSets(nil, st.Config, st.Exposure)
		},
		adopt: func(inst *relational.Instance) {
			st.Config = sys.DecodeIstio(inst)
			st.Exposure = sys.DecodeExposure(inst)
		},
		describe: func() string {
			s := mesh.DescribeIstio(st.Config)
			if st.Exposure != nil {
				s += fmt.Sprintf("exposure: %v\n", st.Exposure)
			}
			return s
		},
	}
	gs, err := NamedIstioGoals(sys, rows)
	if err != nil {
		return nil, nil, err
	}
	p.Goals = gs
	return p, st, nil
}

// NamedIstioGoals compiles an Istio goal table into the goals an Istio
// party carries: one joint goal named after all its rows, or none for an
// empty table.
func NamedIstioGoals(sys *encode.System, rows []goals.IstioGoal) ([]NamedGoal, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	f, err := sys.CompileIstioGoals(rows)
	if err != nil {
		return nil, fmt.Errorf("muppet: Istio goals: %w", err)
	}
	name := "istio-goals["
	for i, r := range rows {
		if i > 0 {
			name += "; "
		}
		name += r.String()
	}
	name += "]"
	return []NamedGoal{{Name: name, Formula: f}}, nil
}
