// Package server implements the long-running mediation service behind
// cmd/muppetd: a load-once, serve-many front end over the solving core.
// It loads a mesh/goal bundle into one immutable encode.System, then
// serves the paper's workflows (check, envelope, reconcile, conform,
// negotiate) from a pool of workers, each owning a warm SolveCache, with
// bounded admission, per-request budgets, graceful drain, and a
// Prometheus-text metrics surface.
//
// The same Exec path also backs the muppet CLI's local mode, so daemon
// and CLI verdicts are identical by construction.
package server

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"muppet"
	"muppet/internal/feder"
)

// Config names the inputs of one mediation state: the YAML bundle, the
// goal tables, the offer modes, and extra inventory ports. String fields
// mirror the CLI flags verbatim so both front ends share one loader.
type Config struct {
	Files      string // comma-separated YAML files (required)
	K8sGoals   string // K8s goals CSV ("" = none)
	IstioGoals string // Istio goals CSV ("" = none)
	K8sOffer   string // fixed|soft|holes ("" = fixed)
	IstioOffer string // fixed|soft|holes ("" = fixed)
	Ports      string // comma-separated extra ports ("" = none)
}

// State is one revision's shared, immutable serving state: the compiled
// system, the retained inputs, and both goal tables compiled over the
// system once, on first use. Every request builds its own parties from
// it. Parties are mutable (Adopt rewrites their configuration), so each
// gets its own configuration copies, offers and goal slice; the goal
// formulas in those slices are shared, because relational formulas are
// immutable and a revision replaces a party's goals rather than editing
// them.
//
// A State may be built as a struct literal; its goals are then compiled
// by the first call that needs them. It must not be copied.
type State struct {
	Sys    *muppet.System
	Bundle *muppet.Bundle

	K8sGoalRows   []muppet.K8sGoal
	IstioGoalRows []muppet.IstioGoal
	K8sOffer      muppet.Offer
	IstioOffer    muppet.Offer

	// The goal tables compiled over Sys, set once by compileGoals.
	goalsOnce  sync.Once
	k8sGoals   []muppet.NamedGoal
	istioGoals []muppet.NamedGoal
	goalsErr   error
}

// Load builds the serving state from cfg: parse the bundle and goal
// tables, collect the port inventory, compile the system, validate the
// offer modes, and compile the goals every request's parties share, so
// malformed goals surface at load time, not on the first request.
func Load(cfg Config) (*State, error) {
	if cfg.Files == "" {
		return nil, fmt.Errorf("-files is required")
	}
	bundle, err := muppet.LoadFiles(strings.Split(cfg.Files, ",")...)
	if err != nil {
		return nil, err
	}
	var kg []muppet.K8sGoal
	if cfg.K8sGoals != "" {
		if kg, err = muppet.LoadK8sGoals(cfg.K8sGoals); err != nil {
			return nil, err
		}
	}
	var ig []muppet.IstioGoal
	if cfg.IstioGoals != "" {
		if ig, err = muppet.LoadIstioGoals(cfg.IstioGoals); err != nil {
			return nil, err
		}
	}
	extra, err := ParsePorts(cfg.Ports)
	if err != nil {
		return nil, err
	}
	for _, g := range kg {
		extra = append(extra, g.Port)
	}
	for _, g := range ig {
		for _, t := range []muppet.PortTerm{g.SrcPort, g.DstPort} {
			if t.Kind == muppet.PortLit {
				extra = append(extra, t.Port)
			}
		}
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies, extra)
	if err != nil {
		return nil, err
	}
	st := &State{Sys: sys, Bundle: bundle, K8sGoalRows: kg, IstioGoalRows: ig}
	if st.K8sOffer, err = ParseOffer(cfg.K8sOffer); err != nil {
		return nil, err
	}
	if st.IstioOffer, err = ParseOffer(cfg.IstioOffer); err != nil {
		return nil, err
	}
	if err := st.compileGoals(); err != nil {
		return nil, err
	}
	return st, nil
}

// compileGoals compiles both goal tables over Sys the first time it
// runs, and reports that compile's error on every call.
func (st *State) compileGoals() error {
	st.goalsOnce.Do(func() {
		if st.k8sGoals, st.goalsErr = muppet.NamedK8sGoals(st.Sys, st.K8sGoalRows); st.goalsErr != nil {
			return
		}
		st.istioGoals, st.goalsErr = muppet.NamedIstioGoals(st.Sys, st.IstioGoalRows)
	})
	return st.goalsErr
}

// FreshParties builds a new party pair over the shared system — the
// per-request mutable state of the serving loop. Each party gets its own
// copy of the compiled goal slice over the shared formulas.
func (st *State) FreshParties() (k8s, istio *muppet.Party, err error) {
	if err := st.compileGoals(); err != nil {
		return nil, nil, err
	}
	k8s, _, err = muppet.NewK8sParty(st.Sys, st.Bundle.K8s, st.K8sOffer, nil)
	if err != nil {
		return nil, nil, err
	}
	istio, _, err = muppet.NewIstioParty(st.Sys, st.Bundle.Istio, st.IstioOffer, nil)
	if err != nil {
		return nil, nil, err
	}
	k8s.Goals = slices.Clone(st.k8sGoals)
	istio.Goals = slices.Clone(st.istioGoals)
	return k8s, istio, nil
}

// Snapshot captures the delta-comparable content of this state's party
// pair (goals, concrete fixed settings, universe) over its own system —
// one side of a revision comparison.
func (st *State) Snapshot() (*muppet.DeltaRevision, error) {
	k8s, istio, err := st.FreshParties()
	if err != nil {
		return nil, err
	}
	return muppet.Snapshot(st.Sys, []*muppet.Party{k8s, istio}), nil
}

// RebasedOn returns a new state with this state's inputs, re-anchored on
// another revision's system: its goals are compiled afresh over sys's
// vocabulary, and parties built from it ground the new revision's
// configurations there too, so the previous revision's warm sessions
// keep serving, with answers identical to the state's own. It fails — and
// the caller must fall back to a cold build — unless sys has exactly the
// state's universe atoms in the same order (delta.Compare's rule) and the
// same structure, which the atoms do not name but goal compilation and
// the exact bounds read from the system: each service's labels and
// listening ports, and each policy's selector.
func (st *State) RebasedOn(sys *muppet.System) (*State, error) {
	if err := sameVocabulary(st.Sys, sys); err != nil {
		return nil, fmt.Errorf("rebase: %w", err)
	}
	rb := &State{
		Sys:           sys,
		Bundle:        st.Bundle,
		K8sGoalRows:   st.K8sGoalRows,
		IstioGoalRows: st.IstioGoalRows,
		K8sOffer:      st.K8sOffer,
		IstioOffer:    st.IstioOffer,
	}
	if err := rb.compileGoals(); err != nil {
		return nil, fmt.Errorf("rebase: %w", err)
	}
	return rb, nil
}

// sameVocabulary reports why sys cannot stand in for own, or nil when
// the two differ only in relation identities. Equal universes with equal
// service and policy counts fix every name and its position, so the
// structure is compared position by position.
func sameVocabulary(own, sys *muppet.System) error {
	a, b := own.Universe.Atoms(), sys.Universe.Atoms()
	if !slices.Equal(a, b) {
		return fmt.Errorf("universe differs (%d atoms, want %d)", len(b), len(a))
	}
	if len(own.Mesh.Services) != len(sys.Mesh.Services) || len(own.K8sShells) != len(sys.K8sShells) ||
		len(own.IstioShells) != len(sys.IstioShells) {
		return fmt.Errorf("service or policy count differs")
	}
	for i, s := range own.Mesh.Services {
		o := sys.Mesh.Services[i]
		if !maps.Equal(s.Labels, o.Labels) || !slices.Equal(s.Ports, o.Ports) {
			return fmt.Errorf("service %s changed its labels or ports", s.Name)
		}
	}
	for i, p := range own.K8sShells {
		if !maps.Equal(p.Selector, sys.K8sShells[i].Selector) {
			return fmt.Errorf("NetworkPolicy %s changed its selector", p.Name)
		}
	}
	for i, p := range own.IstioShells {
		if !maps.Equal(p.Target, sys.IstioShells[i].Target) {
			return fmt.Errorf("AuthorizationPolicy %s changed its selector", p.Name)
		}
	}
	return nil
}

// FedParty materializes this state's side of a federated negotiation:
// the named party (k8s or istio) wrapped for the /fed/ peer protocol,
// carrying its own copy of the compiled goal slice.
func (st *State) FedParty(kind string) (*feder.LocalParty, error) {
	switch strings.ToLower(kind) {
	case "k8s", "kubernetes":
		return st.localK8s()
	case "istio":
		return st.localIstio()
	}
	return nil, fmt.Errorf("%w: bad federated party %q (want k8s or istio)", ErrUsage, kind)
}

// FedReplicas builds the coordinator's local replicas in the party order
// FreshParties uses (k8s, then istio), which fixes the round-robin cycle
// — and therefore byte-parity with the single-process negotiation.
func (st *State) FedReplicas() ([]*feder.LocalParty, error) {
	k8s, err := st.localK8s()
	if err != nil {
		return nil, err
	}
	istio, err := st.localIstio()
	if err != nil {
		return nil, err
	}
	return []*feder.LocalParty{k8s, istio}, nil
}

func (st *State) localK8s() (*feder.LocalParty, error) {
	if err := st.compileGoals(); err != nil {
		return nil, err
	}
	lp, err := feder.NewLocalK8s(st.Sys, st.Bundle.K8s, st.K8sOffer, nil, "")
	if err != nil {
		return nil, err
	}
	lp.P.Goals = slices.Clone(st.k8sGoals)
	return lp, nil
}

func (st *State) localIstio() (*feder.LocalParty, error) {
	if err := st.compileGoals(); err != nil {
		return nil, err
	}
	lp, err := feder.NewLocalIstio(st.Sys, st.Bundle.Istio, st.IstioOffer, nil, "")
	if err != nil {
		return nil, err
	}
	lp.P.Goals = slices.Clone(st.istioGoals)
	return lp, nil
}

// ParseOffer maps an offer-mode name to an Offer, "" meaning fixed.
func ParseOffer(s string) (muppet.Offer, error) {
	switch s {
	case "fixed", "":
		return muppet.Offer{}, nil
	case "soft":
		return muppet.AllSoft(), nil
	case "holes":
		return muppet.AllHoles(), nil
	}
	return muppet.Offer{}, fmt.Errorf("bad offer mode %q (want fixed|soft|holes)", s)
}

// ParsePorts parses a comma-separated list of ports in 1–65535, ""
// meaning none.
func ParsePorts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p <= 0 || p > 65535 {
			return nil, fmt.Errorf("bad port %q", part)
		}
		out = append(out, p)
	}
	return out, nil
}
