package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"muppet"
	"muppet/internal/boolcirc"
	"muppet/internal/encode"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/server"
	"muppet/internal/target"
	"muppet/internal/ucore"
)

// layerMetric is one per-layer metric of the traced run and the
// end-to-end metric it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists every per-layer metric in report order. A workload
// that bypasses a layer reports 0 for it and says so in its notes.
var layerMetrics = []layerMetric{
	{"mesh.parse_ms", "ms", "cold/p50_ms, revise/p50_ms"},
	{"encode.system_ms", "ms", "cold/p50_ms, setup_s on all"},
	{"encode.parties_ms", "ms", "cold/p50_ms, serve/p50_ms"},
	{"muppet.workflow_ms", "ms", "cold/p50_ms, cold/cpu_ms_per_op"},
	{"relational.translate_ms", "ms", "cold/p50_ms, cold/alloc_mb_per_op"},
	{"boolcirc.nodes", "count", "cold/p50_ms, cold/alloc_mb_per_op"},
	{"sat.clauses", "count", "cold/p50_ms, cold/alloc_mb_per_op"},
	{"sat.vars", "count", "cold/p50_ms, cold/alloc_mb_per_op"},
	{"sat.solve_ms", "ms", "cold/p50_ms"},
	{"sat.conflicts", "count", "cold/p50_ms"},
	{"sat.propagations", "count", "cold/p50_ms"},
	{"simp.vars_eliminated", "count", "cold/p50_ms"},
	{"simp.clauses_removed", "count", "cold/p50_ms"},
	{"target.minimize_ms", "ms", "cold/p50_ms, serve/p50_ms"},
	{"target.solves", "count", "cold/p50_ms, serve/p50_ms"},
	{"ucore.core_ms", "ms", "cold/p90_ms"},
	{"ucore.core_size", "count", "cold/p90_ms"},
	{"runtime.gc_cycles_per_op", "count", "cpu_ms_per_op on cold and serve"},
	{"runtime.gc_cpu_frac", "fraction", "cpu_ms_per_op on cold and serve"},
	{"server.handler_ms", "ms", "serve/p50_ms"},
	{"server.transport_ms", "ms", "serve/p50_ms, serve/cpu_ms_per_op"},
	{"server.op.check_p50_ms", "ms", "serve/p50_ms, serve/p90_ms"},
	{"server.op.envelope_p50_ms", "ms", "serve/p50_ms, serve/p90_ms"},
	{"server.op.reconcile_p50_ms", "ms", "serve/p50_ms, serve/p90_ms"},
	{"server.op.conform_p50_ms", "ms", "serve/p50_ms, serve/p90_ms"},
	{"server.op.negotiate_p50_ms", "ms", "serve/p50_ms, serve/p90_ms"},
	{"envelope.compute_ms", "ms", "serve/p50_ms"},
	{"muppet.session_reuse_ratio", "ratio", "serve/p50_ms"},
	{"relational.xlate_hit_ratio", "ratio", "serve/p50_ms"},
	{"tenant.checkout_hit_ratio", "ratio", "serve/p90_ms"},
	{"tenant.idle_cache_mb", "MiB", "serve/peak_rss_mb"},
	{"sat.arena_mb", "MiB", "serve/peak_rss_mb"},
	{"sat.learnt_clauses", "count", "serve/peak_rss_mb"},
	{"server.rejected", "count", "serve/error_frac"},
	{"server.queue_drops", "count", "serve/error_frac"},
	{"tenant.reload_ms", "ms", "revise/p50_ms"},
	{"watch.event_ms", "ms", "revise/p50_ms"},
	{"delta.snapshot_ms", "ms", "revise/p50_ms"},
	{"delta.compare_ms", "ms", "revise/p50_ms"},
	{"delta.groups_kept_ratio", "ratio", "revise/p50_ms, revise/p90_ms"},
	{"delta.restored_vars", "count", "revise/p50_ms, revise/p90_ms"},
	{"delta.cold_frac", "fraction", "revise/p50_ms, revise/p90_ms"},
	{"server.read_after_reload_ms", "ms", "revise/ops_per_s"},
	{"tenant.pool_misses_per_step", "count", "revise/ops_per_s"},
	{"trace.overhead_p50_frac", "fraction", "(the traced run's own cost)"},
	{"trace.overhead_cpu_frac", "fraction", "(the traced run's own cost)"},
	{"trace.spans_per_op", "count", "(the traced run's own cost)"},
}

// layers collects one traced run's per-layer values and a note per
// metric: how it was measured ("replay" marks a stage re-run through its
// layer's own API on the same query) or why the workload bypasses it.
type layers struct {
	values map[string]float64
	notes  map[string]string
}

func newLayers() *layers {
	return &layers{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric; a value that could not be computed (no samples)
// reads 0.
func (l *layers) set(name string, v float64, note string) {
	l.values[name] = finite(v)
	if note != "" {
		l.notes[name] = note
	}
}

// finish fills every metric the workload did not measure with 0 and the
// given reason, so the traced output always carries the whole table.
func (l *layers) finish(bypassReason string) {
	for _, m := range layerMetrics {
		if _, ok := l.values[m.name]; !ok {
			l.values[m.name] = 0
			l.notes[m.name] = bypassReason
		}
	}
}

// loadTraced builds the same serving state server.Load builds, through
// the same public calls in the same order, with a span around each layer:
// mesh.parse (bundle YAML and goal CSVs), encode.system (compile the
// system) and encode.parties (the validating party pair).
func loadTraced(cfg server.Config, tr *tracer, parent int32, op int64) (*server.State, error) {
	sp := tr.begin("mesh.parse", parent, op)
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
	tr.end(sp)
	extra, err := server.ParsePorts(cfg.Ports)
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
	sp = tr.begin("encode.system", parent, op)
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies, extra)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st := &server.State{Sys: sys, Bundle: bundle, K8sGoalRows: kg, IstioGoalRows: ig}
	if st.K8sOffer, err = server.ParseOffer(cfg.K8sOffer); err != nil {
		return nil, err
	}
	if st.IstioOffer, err = server.ParseOffer(cfg.IstioOffer); err != nil {
		return nil, err
	}
	sp = tr.begin("encode.parties", parent, op)
	_, _, err = st.FreshParties()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// sessionReplay is one replay of a reconcile query's solving session.
type sessionReplay struct {
	translateMS  float64
	solveMS      float64
	conflicts    int64
	propagations int64
	varsElim     int64
	clausesRem   int64
	sat          bool
	minimizeMS   float64
	solves       int
	distance     int
	coreMS       float64
	core         []string
}

// replayReconcile re-runs the one-shot reconcile session of st stage by
// stage through the layers' own APIs, mirroring what the nil-cache
// ReconcileCtx does inside internal/muppet: bind both parties' offers
// free, build the session, ground each party's goals and fixed-knob
// groups as named selector literals and its soft knobs as targets, solve
// under the selectors, then either harden and minimise (target) or
// extract the blame core (ucore). Its verdict, edit count and core must
// agree with the served reference, which is checked by the caller.
func replayReconcile(ctx context.Context, st *server.State) (sessionReplay, error) {
	var r sessionReplay
	k8s, istio, err := st.FreshParties()
	if err != nil {
		return r, err
	}
	sys := st.Sys
	t0 := time.Now()
	b := sys.NewBounds()
	oms := map[*muppet.Party]*encode.OfferMap{
		k8s:   sys.BindK8sFree(b, st.Bundle.K8s, st.K8sOffer),
		istio: sys.BindIstioFree(b, st.Bundle.Istio, st.IstioOffer),
	}
	ss := relational.NewSessionWithOptions(b, boolcirc.New(),
		sat.NewWithOptions(sat.Options{SimpMinClauses: -1}), boolcirc.CNFOptions{})
	var named []ucore.Named
	var soft []sat.Lit
	for _, p := range []*muppet.Party{k8s, istio} {
		for _, g := range p.Goals {
			named = append(named, ucore.Named{Name: p.Name + "/" + g.Name, Lit: ss.Lit(g.Formula)})
		}
		named = append(named, fixedGroups(ss, p.Name, oms[p])...)
		for _, ki := range oms[p].SoftInfos() {
			if lit, ok := ss.TupleLit(ki.Rel, ki.Tuple); ok {
				if !ki.Desired {
					lit = lit.Not()
				}
				soft = append(soft, lit)
			}
		}
	}
	assumps := make([]sat.Lit, len(named))
	for i, n := range named {
		assumps[i] = n.Lit
	}
	r.translateMS = msSince(t0)

	s := ss.Solver()
	t0 = time.Now()
	status := ss.SolveCtx(ctx, sat.Budget{}, assumps...)
	r.solveMS = msSince(t0)
	r.conflicts, r.propagations = s.Stats.Conflicts, s.Stats.Propagations
	r.varsElim, r.clausesRem = s.Stats.SimpVarsEliminated, s.Stats.SimpClausesRemoved
	switch status {
	case sat.Sat:
		r.sat = true
		t0 = time.Now()
		for _, l := range assumps {
			s.AddClause(l)
		}
		res := target.Minimize(s, soft, target.Options{Context: ctx, Retractable: true, Canonical: true})
		r.minimizeMS = msSince(t0)
		if res.Status != sat.Sat {
			return r, fmt.Errorf("replay: minimisation lost the model")
		}
		r.solves, r.distance = res.Stats.Solves, res.Distance
	case sat.Unsat:
		t0 = time.Now()
		core := ucore.FindCtx(ctx, sat.Budget{}, s, named)
		r.coreMS = msSince(t0)
		for _, n := range core {
			r.core = append(r.core, n.Name)
		}
		sort.Strings(r.core)
	default:
		return r, fmt.Errorf("replay: indeterminate solve")
	}
	return r, nil
}

// fixedGroups guards each (policy, field) group of a party's fixed knobs
// with one selector, as internal/muppet's workspace does, so blame names
// the groups an administrator edits.
func fixedGroups(ss *relational.Session, party string, om *encode.OfferMap) []ucore.Named {
	type key struct {
		policy string
		field  encode.Field
	}
	groups := map[key][]encode.KnobInfo{}
	var order []key
	for _, ki := range om.Infos {
		if ki.State != encode.StateFixed {
			continue
		}
		k := key{ki.Knob.Policy, ki.Knob.Field}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ki)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].policy != order[j].policy {
			return order[i].policy < order[j].policy
		}
		return order[i].field < order[j].field
	})
	s := ss.Solver()
	var out []ucore.Named
	for _, k := range order {
		sel := sat.PosLit(s.NewVar())
		s.FreezeLit(sel)
		for _, ki := range groups[k] {
			lit, ok := ss.TupleLit(ki.Rel, ki.Tuple)
			if !ok {
				continue
			}
			if !ki.Desired {
				lit = lit.Not()
			}
			s.AddClause(sel.Not(), lit)
		}
		out = append(out, ucore.Named{Name: fmt.Sprintf("%s/config[%s.%s]", party, k.policy, k.field), Lit: sel})
	}
	return out
}

// checkReplay confirms a replay reproduced the served answer: the same
// verdict, as many edits as the reference lists, the same blame core.
func checkReplay(r sessionReplay, want ref) error {
	if r.sat != (want.Code == server.CodeSat) {
		return fmt.Errorf("replay verdict sat=%v, reference code %d", r.sat, want.Code)
	}
	if r.sat {
		if n := strings.Count(want.Output, "  soft edit:"); n != r.distance {
			return fmt.Errorf("replay distance %d, reference lists %d edits", r.distance, n)
		}
		return nil
	}
	wantCore := "conflicting constraints:\n  " + strings.Join(r.core, "\n  ")
	if !strings.Contains(want.Output, wantCore+"\n") {
		return fmt.Errorf("replay core %v is not the reference's blame", r.core)
	}
	return nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
