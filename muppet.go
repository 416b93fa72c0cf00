// Package muppet is a solver-aided multi-party configuration toolkit for
// service meshes, reproducing "Solver-Aided Multi-Party Configuration"
// (Dackow, Wagner, Nelson, Krishnamurthi, Benson — HotNets 2020).
//
// Several administrators — in the paper, a Kubernetes administrator and an
// Istio administrator sharing traffic jurisdiction over one mesh — state
// goals (CSV tables) and partial configurations (concrete settings plus
// "soft" knobs and "holes"). Muppet then provides:
//
//   - Local consistency (Alg. 1): can a party's own offer be completed to
//     meet its own goals? Failures come back as unsat cores with blame.
//   - Reconciliation (Alg. 2): complete everyone's offers so the union of
//     configurations satisfies the union of goals, deviating minimally
//     from soft preferences.
//   - Envelopes (Alg. 3): E_{A→B}, a necessary-and-sufficient predicate
//     set over B's configuration domain for A's goals to hold, modulo A's
//     concrete settings — the interface each party needs the others to
//     obey, usable for verification, synthesis, fault localisation and
//     negotiation.
//   - The conformance workflow (Fig. 7/8): an inflexible provider, a
//     tenant revising with minimal edits against the provider's envelope.
//   - The negotiation workflow (Fig. 9): round-robin counter-offers
//     mediated by the solver, for N ≥ 2 parties.
//
// Everything below runs on a from-scratch stack: a bounded relational
// logic in the style of Kodkod, grounded through a hash-consed boolean
// circuit factory into a CDCL SAT solver, with Pardinus-style
// target-oriented (minimal-edit) solving and unsat-core extraction.
//
// # Quick start
//
//	bundle, _ := muppet.LoadFiles("mesh.yaml", "istio.yaml")
//	sys, _ := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies, []int{23})
//	k8sGoals, _ := muppet.LoadK8sGoals("k8s_goals.csv")
//	provider, _, _ := muppet.NewK8sParty(sys, bundle.K8s, muppet.Offer{}, k8sGoals)
//	tenant, _, _ := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), nil)
//	env, _ := muppet.ComputeEnvelopeCtx(ctx, sys, tenant, []*muppet.Party{provider})
//	fmt.Println(env) // the Fig. 5 envelope, in Alloy-like syntax
package muppet

import (
	"context"
	"strings"

	"muppet/internal/delta"
	"muppet/internal/encode"
	"muppet/internal/envelope"
	"muppet/internal/goals"
	"muppet/internal/mesh"
	core "muppet/internal/muppet"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/scenario"
	"muppet/internal/target"
)

// Domain model (package mesh).
type (
	// Mesh is the shared system structure: the service inventory.
	Mesh = mesh.Mesh
	// Service is a mesh workload with labels and listening ports.
	Service = mesh.Service
	// NetworkPolicy is the modelled Kubernetes NetworkPolicy subset.
	NetworkPolicy = mesh.NetworkPolicy
	// AuthorizationPolicy is the modelled Istio AuthorizationPolicy subset.
	AuthorizationPolicy = mesh.AuthorizationPolicy
	// K8sConfig is the Kubernetes administrator's configuration.
	K8sConfig = mesh.K8sConfig
	// IstioConfig is the Istio administrator's configuration.
	IstioConfig = mesh.IstioConfig
	// Flow is one service-to-service packet flow.
	Flow = mesh.Flow
	// Verdict explains one flow evaluation.
	Verdict = mesh.Verdict
	// Bundle is the result of loading YAML: mesh + both configurations.
	Bundle = mesh.Bundle
)

// Goal language (package goals).
type (
	// K8sGoal is one row of the K8s goal table (paper Fig. 2).
	K8sGoal = goals.K8sGoal
	// IstioGoal is one row of the Istio goal table (paper Figs. 3–4).
	IstioGoal = goals.IstioGoal
	// PortTerm is a port cell: literal, `*`, or existential variable.
	PortTerm = goals.PortTerm
)

// Encoding (package encode).
type (
	// System fixes the logical vocabulary for one mesh + policy shells.
	System = encode.System
	// Offer is a partial configuration: soft knobs and holes.
	Offer = encode.Offer
	// Knob addresses one boolean configuration decision.
	Knob = encode.Knob
	// Field identifies one configurable policy table.
	Field = encode.Field
)

// Workflows (package muppet/internal/muppet).
type (
	// Party is one administrator in the workflows.
	Party = core.Party
	// K8sPartyState is the mutable state behind a Kubernetes party.
	K8sPartyState = core.K8sPartyState
	// IstioPartyState is the mutable state behind an Istio party.
	IstioPartyState = core.IstioPartyState
	// NamedGoal pairs a goal formula with a blame label.
	NamedGoal = core.NamedGoal
	// Result is the outcome of a consistency/reconciliation query.
	Result = core.Result
	// Edit is one soft-knob flip (minimal-edit feedback).
	Edit = core.Edit
	// Feedback is an unsat core with blame.
	Feedback = core.Feedback
	// ConformanceOutcome records a Fig. 7 run.
	ConformanceOutcome = core.ConformanceOutcome
	// Negotiation drives the Fig. 9 workflow.
	Negotiation = core.Negotiation
	// NegotiationOutcome summarises a negotiation run.
	NegotiationOutcome = core.NegotiationOutcome
	// RoundReport records one negotiation turn.
	RoundReport = core.RoundReport
	// TerminalReason classifies how a negotiation run ended.
	TerminalReason = core.TerminalReason
	// Turn is one party's revision phase in a negotiation round.
	Turn = core.Turn
	// Envelope is E_{A→B} (paper Fig. 5, Alg. 3).
	Envelope = envelope.Envelope
)

// Budgets and degradation. Every solving workflow takes a context and a
// Budget; when either interrupts the solver, results come back
// Indeterminate (with a StopReason) instead of a fabricated verdict.
type (
	// Budget bounds solver work: wall-clock deadline, conflict cap,
	// propagation cap. The zero value is unlimited.
	Budget = sat.Budget
	// StopReason explains why a solve stopped before reaching a verdict.
	StopReason = target.StopReason
)

// StopReason values.
const (
	StopNone         = target.StopNone
	StopCancelled    = target.StopCancelled
	StopDeadline     = target.StopDeadline
	StopConflicts    = target.StopConflicts
	StopPropagations = target.StopPropagations
)

// Incremental reuse. A SolveCache keeps live solving sessions across
// workflow calls (negotiation rounds, conformance retries, repeated
// checks), turning them into incremental solves; the workflow functions
// below that it serves run its methods on a nil cache. It is a performance
// feature only: verdicts, models' validity, and blame cores are identical
// either way.
type (
	// SolveCache serves the workflow queries from live, reusable solving
	// sessions. Single-goroutine; use one per worker (see FanOut).
	SolveCache = core.SolveCache
	// ReuseStats counts sessions built vs. reused and translation-cache
	// hits across a SolveCache.
	ReuseStats = core.ReuseStats
	// TranslationStats counts formula-translation cache hits and misses.
	TranslationStats = relational.CacheStats
)

// NewSolveCache creates an empty solving-session cache.
func NewSolveCache() *SolveCache { return core.NewSolveCache() }

// Delta re-reconciliation (package delta + the SolveCache Rebase path):
// given two revisions of a bundle/goal set, compute the changed goals and
// relational atoms, then re-solve the new revision over the previous
// revision's warm sessions — untouched selector-guarded CNF groups kept,
// changed groups re-asserted (restoring eliminated variables as needed) —
// instead of a cold rebuild. Verdicts are byte-identical to cold runs;
// DeltaStats reports how incremental the step was.
type (
	// DeltaRevision snapshots one revision's comparable content.
	DeltaRevision = delta.Revision
	// DeltaPlan is the diff between two revisions: the changed atoms, the
	// goal churn, and whether a warm rebase is possible at all.
	DeltaPlan = delta.Plan
	// DeltaAtom is one changed relational atom.
	DeltaAtom = delta.Atom
	// DeltaStats reports warm-state reuse across one rebase.
	DeltaStats = core.DeltaStats
)

// Snapshot captures a party set's delta-comparable content over a system.
func Snapshot(sys *System, parties []*Party) *DeltaRevision {
	return core.Snapshot(sys, parties)
}

// CompareRevisions diffs two revision snapshots into a re-assertion plan.
func CompareRevisions(old, new *DeltaRevision) *DeltaPlan {
	return delta.Compare(old, new)
}

// Encoding is the package-wide encoding-pipeline configuration: the zero
// value (polarity-aware Tseitin and CNF preprocessing both on) is the
// default; the switches are ablation/escape hatches. Changing it never
// changes verdicts, model validity, or blame cores — only encoding size
// and speed.
type Encoding = core.Encoding

// EncodingStats sizes the encoding pipeline across a SolveCache's live
// sessions (circuit nodes, solver variables/clauses, preprocessing wins).
type EncodingStats = core.EncodingStats

// SetEncoding installs the encoding configuration for subsequently built
// sessions and returns the previous one. Safe to call concurrently with
// running queries.
func SetEncoding(e Encoding) Encoding { return core.SetEncoding(e) }

// EncodingConfig reports the current encoding configuration.
func EncodingConfig() Encoding { return core.EncodingConfig() }

// FanOut serves n independent workflow queries across a bounded goroutine
// pool sharing one (immutable) System; each task owns its parties and any
// SolveCache. The first error cancels the rest.
func FanOut(ctx context.Context, workers, n int, task func(ctx context.Context, i int) error) error {
	return core.FanOut(ctx, workers, n, task)
}

// Negotiation terminal reasons.
const (
	ReasonReconciled      = core.ReasonReconciled
	ReasonExhaustedRounds = core.ReasonExhaustedRounds
	ReasonAllStuck        = core.ReasonAllStuck
	ReasonIndeterminate   = core.ReasonIndeterminate
	ReasonUnreachable     = core.ReasonUnreachable
)

// Scenario generation for experiments.
type (
	// Scenario is a synthetic multi-party configuration problem.
	Scenario = scenario.Scenario
	// ScenarioParams sizes a generated scenario.
	ScenarioParams = scenario.Params
)

// Port-cell kinds, re-exported from package goals.
const (
	PortLit = goals.PortLit
	PortAny = goals.PortAny
	PortVar = goals.PortVar
)

// LitPort builds a concrete port term.
func LitPort(p int) PortTerm { return goals.LitPort(p) }

// AnyPort builds the `*` port term.
func AnyPort() PortTerm { return goals.AnyPort() }

// VarPort builds an existential port variable term.
func VarPort(name string) PortTerm { return goals.VarPort(name) }

// Configurable field identifiers, re-exported from package encode.
const (
	FieldKIngressDeny  = encode.FieldKIngressDeny
	FieldKIngressAllow = encode.FieldKIngressAllow
	FieldKEgressDeny   = encode.FieldKEgressDeny
	FieldKEgressAllow  = encode.FieldKEgressAllow
	FieldIDenyTo       = encode.FieldIDenyTo
	FieldIAllowTo      = encode.FieldIAllowTo
	FieldIDenyFrom     = encode.FieldIDenyFrom
	FieldIAllowFrom    = encode.FieldIAllowFrom
	FieldExposure      = encode.FieldExposure
)

// --- loading ---

// LoadFiles decodes YAML files (Services, NetworkPolicies,
// AuthorizationPolicies) into one bundle.
func LoadFiles(paths ...string) (*Bundle, error) { return mesh.LoadFiles(paths...) }

// ParseAll decodes a multi-document YAML stream.
func ParseAll(data []byte) (*Bundle, error) { return mesh.ParseAll(data) }

// LoadK8sGoals reads a Fig. 2-style CSV goal table.
func LoadK8sGoals(path string) ([]K8sGoal, error) { return goals.LoadK8sGoals(path) }

// LoadIstioGoals reads a Figs. 3/4-style CSV goal table.
func LoadIstioGoals(path string) ([]IstioGoal, error) { return goals.LoadIstioGoals(path) }

// --- system & parties ---

// NewSystem fixes the logical vocabulary for a mesh, the two parties'
// policy shells, and any extra ports goals may mention.
func NewSystem(m *Mesh, k8sShells []*NetworkPolicy, istioShells []*AuthorizationPolicy, extraPorts []int) (*System, error) {
	return encode.NewSystem(m, k8sShells, istioShells, extraPorts)
}

// NewK8sParty builds the Kubernetes administrator party.
func NewK8sParty(sys *System, cfg *K8sConfig, offer Offer, rows []K8sGoal) (*Party, *K8sPartyState, error) {
	return core.NewK8sParty(sys, cfg, offer, rows)
}

// NewIstioParty builds the Istio administrator party.
func NewIstioParty(sys *System, cfg *IstioConfig, offer Offer, rows []IstioGoal) (*Party, *IstioPartyState, error) {
	return core.NewIstioParty(sys, cfg, offer, rows)
}

// NamedK8sGoals compiles a K8s goal table into a K8s party's goals.
func NamedK8sGoals(sys *System, rows []K8sGoal) ([]NamedGoal, error) {
	return core.NamedK8sGoals(sys, rows)
}

// NamedIstioGoals compiles an Istio goal table into an Istio party's
// goals.
func NamedIstioGoals(sys *System, rows []IstioGoal) ([]NamedGoal, error) {
	return core.NamedIstioGoals(sys, rows)
}

// AllSoft marks every knob soft: a full configuration open to compromise.
func AllSoft() Offer { return encode.AllSoft() }

// AllHoles marks every knob a hole: complete flexibility.
func AllHoles() Offer { return encode.AllHoles() }

// --- algorithms & workflows ---

// LocalConsistencyCtx is Alg. 1: complete the subject's offer, all other
// parties free, to satisfy the subject's goals.
func LocalConsistencyCtx(ctx context.Context, sys *System, subject *Party, others []*Party, b Budget) *Result {
	return (*SolveCache)(nil).LocalConsistencyCtx(ctx, sys, subject, others, b)
}

// ReconcileCtx is Alg. 2: complete every party's offer so that the union
// of configurations satisfies the union of goals.
func ReconcileCtx(ctx context.Context, sys *System, parties []*Party, b Budget) *Result {
	return (*SolveCache)(nil).ReconcileCtx(ctx, sys, parties, b)
}

// ComputeEnvelopeCtx is Alg. 3: the senders' goals, modulo their concrete
// settings, expressed over the recipient's domain. A context that is
// already done returns its error instead of an envelope.
func ComputeEnvelopeCtx(ctx context.Context, sys *System, recipient *Party, senders []*Party) (*Envelope, error) {
	return core.ComputeEnvelopeCtx(ctx, sys, recipient, senders)
}

// CheckCandidate is the first half of the Fig. 8 revision aid.
func CheckCandidate(sys *System, p *Party, env *Envelope, withOwnGoals bool, others ...*Party) (bool, []relational.Formula) {
	return core.CheckCandidate(sys, p, env, withOwnGoals, others...)
}

// MinimalEditCtx is the second half of Fig. 8: satisfy the constraints
// with minimal deviation from the party's soft preferences. An
// interrupted search degrades to the best valid completion found.
func MinimalEditCtx(ctx context.Context, sys *System, p *Party, constraints []relational.Formula, b Budget, others ...*Party) *Result {
	return (*SolveCache)(nil).MinimalEditCtx(ctx, sys, p, constraints, b, others...)
}

// GoalsCompatibleCtx compares a received envelope with the recipient's
// goals (Sec. 3's second envelope use): can ANY recipient configuration
// satisfy both? If not, the recipient's goals must change.
func GoalsCompatibleCtx(ctx context.Context, sys *System, recipient *Party, env *Envelope, b Budget, senders ...*Party) *Result {
	return core.GoalsCompatibleCtx(ctx, sys, recipient, env, b, senders...)
}

// RunConformanceCtx drives the Fig. 7 conformance workflow, sharing the
// budget across every solve of the workflow.
func RunConformanceCtx(ctx context.Context, sys *System, provider, tenant *Party, b Budget) *ConformanceOutcome {
	return (*SolveCache)(nil).RunConformanceCtx(ctx, sys, provider, tenant, b)
}

// NewNegotiation registers parties for the Fig. 9 negotiation workflow.
func NewNegotiation(sys *System, parties ...*Party) *Negotiation {
	return core.NewNegotiation(sys, parties...)
}

// SynthesizeMonolithicCtx is the Fig. 6 single-shot baseline over the
// union of all goals, with no partiality or negotiation.
func SynthesizeMonolithicCtx(ctx context.Context, sys *System, parties []*Party, b Budget) *Result {
	return core.SynthesizeMonolithicCtx(ctx, sys, parties, b)
}

// --- runtime evaluation ---

// Evaluate decides one flow under concrete configurations, with a reason
// on denial.
func Evaluate(m *Mesh, k8s *K8sConfig, istio *IstioConfig, f Flow) Verdict {
	return mesh.Evaluate(m, k8s, istio, f)
}

// Allowed is Evaluate without the explanation.
func Allowed(m *Mesh, k8s *K8sConfig, istio *IstioConfig, f Flow) bool {
	return mesh.Allowed(m, k8s, istio, f)
}

// ReachabilityMatrix reports, per ordered service pair, the destination
// ports on which traffic is allowed.
func ReachabilityMatrix(m *Mesh, k8s *K8sConfig, istio *IstioConfig) map[string][]int {
	return mesh.ReachabilityMatrix(m, k8s, istio)
}

// GenerateScenario builds a deterministic synthetic scenario for
// experiments and benchmarks.
func GenerateScenario(p ScenarioParams) *Scenario { return scenario.Generate(p) }

// EnglishEnvelope renders an envelope as administrator-facing prose — the
// paper's Fig. 5 caption form (and its Sec. 7 "Presentation" question).
// Clauses the renderer does not recognise fall back to Alloy-like syntax.
func EnglishEnvelope(sys *System, env *Envelope) string {
	var b strings.Builder
	b.WriteString("Envelope ")
	b.WriteString(env.Name())
	b.WriteString(":\n")
	if env.Trivial() {
		b.WriteString("no obligations — the sender's goals are satisfied by its own settings.\n")
		return b.String()
	}
	for _, c := range env.Clauses {
		b.WriteString(sys.English(c))
	}
	return b.String()
}
