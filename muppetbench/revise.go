package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/scenario"
	"muppet/internal/server"
	"muppet/internal/tenant"
)

// The revise workload is writes: services=12 tenants each walk seeded
// sequences of revisions. One op is one revision step: Registry.Reload
// publishes revision N of a tenant and the watcher's long-poll on
// /t/{id}/watch/reconcile returns the verdict for N; op latency runs from
// publish to verdict. Before the next step the loop issues one check on
// the new revision, which counts in ops_per_s but not in op latency. The
// publisher and the watcher are the two connections.
//
// A step costs what its scenario and its edit happen to cost: across
// seeds, one-tenant runs differed 2.5× in p50 and 1.7× in ops_per_s, and
// within one six-tenant run the per-tenant median step ranged from 12 to
// 43 ms. A run therefore averages over many of both: nine tenants,
// stepped round-robin, and fresh edits in every block, so a window
// crosses 54 distinct edits rather than repeating 18.

const (
	reviseServices = 12
	reviseTenants  = 9
	// reviseEdits is the number of forward edits per walk. A walk goes
	// S0 → S1 → S2 → S1 → S0, one edit per step, so a block (every
	// tenant's walk once, round-robin) is 36 steps, 6 of which change the
	// universe and fall back to a cold solve.
	reviseEdits = 2
	// reviseWalks is the number of walks per tenant, each with its own
	// fresh edits from the tenant's base S0; block b runs walk b mod
	// reviseWalks. The warm-up block runs walk 0 and a 15 s window runs
	// three or four blocks (walks 1, 2, 0 and maybe 1 again), so a window
	// times every walk and 54 distinct edits.
	reviseWalks = 3
	// reviseUniverseTenants is how many tenants have a universe edit in
	// each walk; over the reviseWalks walks, every tenant has one.
	reviseUniverseTenants = 3
)

// Edit kinds. In each walk, three of the fleet's 18 forward edits change
// the universe, each in a different tenant; the other 15 are ban flips,
// add-flow, drop-flow and allow-list edits in turn (4, 4, 4, 3),
// shuffled. In-universe edits cost 13-65 ms to answer warm at
// services=12, except about a quarter of the flips (70-280 ms, a
// near-cold re-solve); a universe step costs a cold solve (130-240 ms).
// With the issue's one universe change in twenty, slow steps made up
// 6-12% of a run depending on the seed, and p90 jumped between the warm
// body and the slow tail (35-130 ms across seeds, 63-129 ms across runs
// of one seed). One universe change in six puts p90 inside the cold
// cluster, where it measures the cold-fallback path, and leaves p50 on
// the warm delta path.
const (
	editFlip = iota
	editAddFlow
	editDropFlow
	editAllowList
	editUniverse
)

// editNames label each step by the kind of edit it crosses, for the
// per-kind latency breakdown.
var editNames = []string{"flip", "add-flow", "drop-flow", "allow-list", "universe"}

type revState struct {
	edit      string // the edit that produced this state from the previous one
	kind      int    // that edit's kind
	f         files
	reconcile ref
	check     ref
}

type revTenant struct {
	id     string
	states []*revState // the base S0, then each walk's reviseEdits states
	walks  [][]int     // each walk's target states: S1 … S(reviseEdits) … S1, S0
}

type reviseInputs struct {
	tenants []*revTenant
}

// stepOf maps a step of the sequence to its tenant, its target state and
// the kind of edit the step crosses.
func (in *reviseInputs) stepOf(i int) (t *revTenant, s, kind int) {
	n := len(in.tenants)
	t = in.tenants[i%n]
	walk := t.walks[(i/in.block())%len(t.walks)]
	pos := (i / n) % len(walk)
	s = walk[pos]
	prev := 0 // every walk starts from S0
	if pos > 0 {
		prev = walk[pos-1]
	}
	return t, s, t.states[max(s, prev)].kind
}

// block is one walk of every tenant, round-robin.
func (in *reviseInputs) block() int {
	return len(in.tenants) * len(in.tenants[0].walks[0])
}

var checkReq = server.Request{Op: "check", Party: "k8s"}

// clone copies the parts of a bundle that edits change.
func (b *bundle) clone() *bundle {
	cp := *b
	cp.Istio = mesh.CloneIstio(b.Istio)
	cp.K8sGoals = append([]goals.K8sGoal(nil), b.K8sGoals...)
	cp.IstioGoals = append([]goals.IstioGoal(nil), b.IstioGoals...)
	return &cp
}

// editor produces one seeded revision step at a time. In-universe edits
// are reconcilable by construction: flow rows on any port that was ever
// banned use an existential port, so no later ban can pin them.
type editor struct {
	rng      *rand.Rand
	banned   map[int]bool
	nextVar  int
	nextPort int
}

func newEditor(rng *rand.Rand, base *bundle) *editor {
	e := &editor{rng: rng, banned: map[int]bool{}, nextPort: 60000}
	for _, g := range base.K8sGoals {
		e.banned[g.Port] = true
	}
	return e
}

// apply returns a copy of prev with one edit of the given kind applied,
// and a description of the edit.
func (e *editor) apply(prev *bundle, kind int) (*bundle, string) {
	b := prev.clone()
	svcs := b.Mesh.Services
	switch kind {
	case editUniverse: // ban a port outside the inventory
		port := e.nextPort
		e.nextPort++
		b.K8sGoals = append(b.K8sGoals, goals.K8sGoal{Port: port})
		return b, fmt.Sprintf("ban new port %d", port)
	case editFlip:
		var idx []int
		for i, g := range b.K8sGoals {
			if e.banned[g.Port] {
				idx = append(idx, i)
			}
		}
		i := idx[e.rng.Intn(len(idx))]
		b.K8sGoals[i].Allow = !b.K8sGoals[i].Allow
		return b, "flip to " + b.K8sGoals[i].String()
	case editAddFlow:
		si := e.rng.Intn(len(svcs))
		di := (si + 1 + e.rng.Intn(len(svcs)-1)) % len(svcs)
		dst := svcs[di]
		port := dst.Ports[e.rng.Intn(len(dst.Ports))]
		g := goals.IstioGoal{Src: svcs[si].Name, Dst: dst.Name, SrcPort: goals.AnyPort(), DstPort: goals.LitPort(port), Allow: true}
		if e.banned[port] {
			e.nextVar++
			g.DstPort = goals.VarPort(fmt.Sprintf("r%d", e.nextVar))
		}
		b.IstioGoals = append(b.IstioGoals, g)
		return b, "add flow " + g.String()
	case editDropFlow:
		i := e.rng.Intn(len(b.IstioGoals))
		g := b.IstioGoals[i]
		b.IstioGoals = append(b.IstioGoals[:i], b.IstioGoals[i+1:]...)
		return b, "drop flow " + g.String()
	default: // edit a policy's allow list: add a missing source, or drop one
		p := b.Istio.Policies[e.rng.Intn(len(b.Istio.Policies))]
		var missing []string
		for _, s := range svcs {
			if !contains(p.AllowFromServices, s.Name) {
				missing = append(missing, s.Name)
			}
		}
		if len(missing) > 0 && (len(p.AllowFromServices) < 2 || e.rng.Intn(2) == 0) {
			name := missing[e.rng.Intn(len(missing))]
			p.AllowFromServices = append(p.AllowFromServices, name)
			return b, fmt.Sprintf("%s: allow %s", p.Name, name)
		}
		i := e.rng.Intn(len(p.AllowFromServices))
		name := p.AllowFromServices[i]
		p.AllowFromServices = append(p.AllowFromServices[:i], p.AllowFromServices[i+1:]...)
		return b, fmt.Sprintf("%s: disallow %s", p.Name, name)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func genRevise(seed int64, dir string) (*reviseInputs, error) {
	rng := rngFor(seed, "revise")
	in := &reviseInputs{}
	var bases []*bundle
	var editors []*editor
	for ti := 0; ti < reviseTenants; ti++ {
		b := fromScenario(scenario.Generate(scenarioParams(reviseServices, rng.Int63())), false)
		t := &revTenant{id: fmt.Sprintf("rev%d", ti)}
		f, err := b.write(filepath.Join(dir, t.id, "s0"))
		if err != nil {
			return nil, err
		}
		t.states = []*revState{{edit: "base", f: f}}
		bases, editors = append(bases, b), append(editors, newEditor(rng, b))
		in.tenants = append(in.tenants, t)
	}
	order := rng.Perm(reviseTenants)
	for w := 0; w < reviseWalks; w++ {
		kinds := walkKinds(rng, order, w)
		for ti, t := range in.tenants {
			b := bases[ti]
			first := len(t.states)
			for _, kind := range kinds[ti] {
				var edit string
				b, edit = editors[ti].apply(b, kind)
				f, err := b.write(filepath.Join(dir, t.id, fmt.Sprintf("s%d", len(t.states))))
				if err != nil {
					return nil, err
				}
				t.states = append(t.states, &revState{edit: edit, kind: kind, f: f})
			}
			var walk []int
			for i := 0; i < reviseEdits; i++ {
				walk = append(walk, first+i)
			}
			for i := reviseEdits - 2; i >= 0; i-- {
				walk = append(walk, first+i)
			}
			t.walks = append(t.walks, append(walk, 0))
		}
	}
	return in, nil
}

// walkKinds deals walk w's edit kinds to the tenants: a universe edit to
// reviseUniverseTenants of them, and the other kinds in turn, shuffled.
// The universe edits rotate through the tenants in the seed's order, so
// the cold fallback is timed on every tenant's scenario alike.
func walkKinds(rng *rand.Rand, order []int, w int) [][]int {
	var others []int
	for len(others) < reviseTenants*reviseEdits-reviseUniverseTenants {
		others = append(others, len(others)%editUniverse)
	}
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	kinds := make([][]int, reviseTenants)
	for i, ti := range order {
		n := reviseEdits
		if (i-w*reviseUniverseTenants+reviseTenants*reviseWalks)%reviseTenants < reviseUniverseTenants {
			kinds[ti] = []int{editUniverse}
			n--
		}
		kinds[ti], others = append(kinds[ti], others[:n]...), others[n:]
		rng.Shuffle(len(kinds[ti]), func(i, j int) { kinds[ti][i], kinds[ti][j] = kinds[ti][j], kinds[ti][i] })
	}
	return kinds
}

func (in *reviseInputs) allStates() []*revState {
	var out []*revState
	for _, t := range in.tenants {
		out = append(out, t.states...)
	}
	return out
}

func (in *reviseInputs) references(ctx context.Context) error {
	states := in.allStates()
	return muppet.FanOut(ctx, 2, 2*len(states), func(ctx context.Context, i int) error {
		s := states[i/2]
		var err error
		if i%2 == 0 {
			// Every revision keeps relaxed goals and soft offers: it reconciles.
			s.reconcile, err = reference(ctx, s.f.Config, server.Request{Op: "reconcile"}, server.CodeSat)
		} else {
			s.check, err = reference(ctx, s.f.Config, checkReq, anyVerdict)
		}
		if err != nil {
			return fmt.Errorf("%s (%s): %w", s.f.Dir, s.edit, err)
		}
		return nil
	})
}

func prepareRevise(ctx context.Context, seed int64, dir string) (prepared, error) {
	in, err := genRevise(seed, dir)
	if err != nil {
		return nil, err
	}
	if err := in.references(ctx); err != nil {
		return nil, err
	}
	return in, nil
}

// stepRecord is what one traced step observed beyond its spans.
type stepRecord struct {
	delta  *server.DeltaReport
	misses int64
}

// pollReq asks the watcher for the first event of a tenant past a
// revision; the answer comes back on reply.
type pollReq struct {
	tenant string
	since  int64
	reply  chan pollResult
}

type pollResult struct {
	ev  *server.WatchEvent
	err error
}

type reviseInstance struct {
	in  *reviseInputs
	reg *tenant.Registry[*server.State]
	srv *server.Server
	ts  *httptest.Server
	// client is the publisher's connection (reloads are in-process; the
	// check reads go over it); the watcher has its own.
	client  *http.Client
	watcher *http.Client
	polls   chan pollReq
	done    chan struct{}

	cur map[string]*atomic.Int32 // the state each tenant's loader serves

	// Loader tracing; touched only by the publisher goroutine, which is
	// also the one Registry.Reload runs the loader on.
	tr      *tracer
	trSpan  int32
	trOp    int64
	records []stepRecord
}

// setup loads and compiles the tenants, starts the server and subscribes
// the watcher to each tenant (its baseline is a cold reconcile).
func (in *reviseInputs) setup() (instance, error) {
	r := &reviseInstance{
		in:      in,
		reg:     tenant.NewRegistry[*server.State](tenant.NewLedger(0)),
		client:  &http.Client{Transport: &http.Transport{}},
		watcher: &http.Client{Transport: &http.Transport{}},
		polls:   make(chan pollReq),
		done:    make(chan struct{}),
		cur:     map[string]*atomic.Int32{},
	}
	for _, t := range in.tenants {
		t := t
		cur := new(atomic.Int32)
		r.cur[t.id] = cur
		loaders := make([]tenant.LoadFunc[*server.State], len(t.states))
		for i, s := range t.states {
			loaders[i] = server.LoaderFromConfig(s.f.Config)
		}
		load := func() (*server.State, string, error) {
			i := cur.Load()
			if r.tr == nil {
				return loaders[i]()
			}
			cfg := t.states[i].f.Config
			st, err := loadTraced(cfg, r.tr, r.trSpan, r.trOp)
			if err != nil {
				return nil, "", err
			}
			return st, tenant.Fingerprint(append(strings.Split(cfg.Files, ","), cfg.K8sGoals, cfg.IstioGoals)...), nil
		}
		if _, err := r.reg.Add(t.id, load); err != nil {
			return nil, err
		}
	}
	r.srv = server.NewMulti(r.reg, server.Options{WatchPollTimeout: time.Minute})
	r.ts = httptest.NewServer(r.srv)
	go r.watch()
	for _, t := range in.tenants {
		if err := r.expect(t, 1, 0); err != nil {
			r.close()
			return nil, fmt.Errorf("%s: watch baseline: %w", t.id, err)
		}
	}
	return r, nil
}

// watch is the watcher connection: it serves poll requests one at a
// time with long-polls on the reconcile watch endpoint, until polls is
// closed.
func (r *reviseInstance) watch() {
	defer close(r.done)
	for p := range r.polls {
		ev, err := r.poll(p.tenant, p.since)
		p.reply <- pollResult{ev, err}
	}
}

func (r *reviseInstance) poll(id string, since int64) (*server.WatchEvent, error) {
	for {
		url := fmt.Sprintf("%s/t/%s/watch/reconcile?rev=%d", r.ts.URL, id, since)
		resp, err := r.watcher.Get(url)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusNoContent:
			continue // poll timeout: poll again
		case http.StatusOK:
		default:
			return nil, fmt.Errorf("watch: HTTP %d: %s", resp.StatusCode, data)
		}
		var ev server.WatchEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return nil, fmt.Errorf("watch: decode: %w", err)
		}
		if ev.Terminal {
			return nil, fmt.Errorf("watch ended: %s", ev.Reason)
		}
		return &ev, nil
	}
}

// expect waits for tenant t's watch event of revision rev and checks it
// against state s's reconcile reference.
func (r *reviseInstance) expect(t *revTenant, rev int64, s int) error {
	reply := make(chan pollResult, 1)
	r.polls <- pollReq{tenant: t.id, since: rev - 1, reply: reply}
	res := <-reply
	if res.err != nil {
		return res.err
	}
	if res.ev.Revision != rev {
		return fmt.Errorf("watch event for revision %d, want %d", res.ev.Revision, rev)
	}
	if err := checkResponse(res.ev.Code, res.ev.Output, t.states[s].reconcile); err != nil {
		return fmt.Errorf("%s watch reconcile of revision %d (state %d): %w", t.id, rev, s, err)
	}
	if r.tr != nil {
		r.records = append(r.records, stepRecord{delta: res.ev.Delta})
	}
	return nil
}

func (r *reviseInstance) clients() int { return 1 }
func (r *reviseInstance) block() int   { return r.in.block() }

func (r *reviseInstance) close() {
	r.srv.Drain() // ends any outstanding long-poll with a terminal event
	close(r.polls)
	<-r.done
	r.ts.Close()
	r.srv.Close()
	r.client.CloseIdleConnections()
	r.watcher.CloseIdleConnections()
}

func (r *reviseInstance) do(_ int, i int, tr *tracer, opID int64) opResult {
	t, s, kind := r.in.stepOf(i)
	res := r.publish(t, s, tr, opID)
	res.kind = "step:" + editNames[kind]
	return res
}

// publish is one step: publish state s of tenant t, wait for its
// verdict (the op latency), then read the new revision once.
func (r *reviseInstance) publish(t *revTenant, s int, tr *tracer, opID int64) opResult {
	root := tr.begin("step", -1, opID)
	defer tr.end(root)
	r.tr, r.trOp = tr, opID
	defer func() { r.tr = nil }()
	t0 := time.Now()
	r.cur[t.id].Store(int32(s))
	sp := tr.begin("tenant.reload", root, opID)
	r.trSpan = sp
	ent, _, err := r.reg.Reload(t.id, true)
	tr.end(sp)
	if err != nil {
		return opResult{kind: "step", err: err}
	}
	sp = tr.begin("watch.event", root, opID)
	err = r.expect(t, ent.Revision, s)
	tr.end(sp)
	lat := time.Since(t0)
	if err != nil {
		return opResult{latency: lat, kind: "step", err: err}
	}
	sp = tr.begin("server.read", root, opID)
	err = r.read(t, s)
	tr.end(sp)
	if tr != nil && len(r.records) > 0 {
		r.records[len(r.records)-1].misses = ent.Pool.Stats().Misses
	}
	return opResult{latency: lat, kind: "step", err: err}
}

// read issues the check on tenant t's current revision and compares it
// with state s's reference.
func (r *reviseInstance) read(t *revTenant, s int) error {
	body, err := json.Marshal(checkReq)
	if err != nil {
		return err
	}
	resp, err := r.client.Post(r.ts.URL+"/t/"+t.id+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("check: HTTP %d: %s", resp.StatusCode, data)
	}
	var out server.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("check: decode: %w", err)
	}
	if err := checkResponse(out.Code, out.Output, t.states[s].check); err != nil {
		return fmt.Errorf("%s check of state %d: %w", t.id, s, err)
	}
	return nil
}

func (in *reviseInputs) layers(ctx context.Context, i instance, tw *window, tr *tracer) (*layers, error) {
	r := i.(*reviseInstance)
	l := newLayers()
	steps := float64(tw.attempted())
	st := tr.stats()
	perStep := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.TotalMS / steps
		}
		return 0
	}
	l.set("tenant.reload_ms", perStep("tenant.reload"), "Registry.Reload (load, parse, compile, swap), per step")
	l.set("mesh.parse_ms", perStep("mesh.parse"), "inside the reload: bundle YAML + goal CSVs, per step")
	l.set("encode.system_ms", perStep("encode.system"), "inside the reload: muppet.NewSystem, per step")
	l.set("encode.parties_ms", perStep("encode.parties"), "inside the reload: the validating party pair, per step")
	l.set("watch.event_ms", perStep("watch.event"), "from Reload's return to the long-poll event, per step")
	l.set("server.read_after_reload_ms", perStep("server.read"), "the first check on each new revision (a fresh pool: cold)")

	var kept, touched, restored, cold, misses float64
	for _, rec := range r.records {
		if rec.delta != nil {
			kept += float64(rec.delta.GroupsKept)
			touched += float64(rec.delta.GroupsKept + rec.delta.GroupsReasserted)
			restored += float64(rec.delta.Restored)
			if rec.delta.Cold {
				cold++
			}
		}
		misses += float64(rec.misses)
	}
	n := float64(len(r.records))
	keptNote := "each event's DeltaReport: groups kept over kept + re-asserted"
	if touched == 0 {
		keptNote = "no selector-guarded config groups: every knob is soft on this workload"
	}
	l.set("delta.groups_kept_ratio", ratio(kept, touched), keptNote)
	l.set("delta.restored_vars", ratio(restored, n), "each event's DeltaReport, mean per step")
	l.set("delta.cold_frac", ratio(cold, n), "each event's DeltaReport: share of steps that fell back to a cold solve")
	l.set("tenant.pool_misses_per_step", ratio(misses, n), "PoolStats of each new revision's pool after its first read")

	// Replay the delta front half on every tenant's revision pairs.
	var snap, cmp []float64
	for _, t := range in.tenants {
		states := make([]*server.State, len(t.states))
		for i, s := range t.states {
			st, err := server.Load(s.f.Config)
			if err != nil {
				return nil, err
			}
			states[i] = st
		}
		prev := 0
		for _, s := range slices.Concat(t.walks...) {
			var revs [2]*muppet.DeltaRevision
			for j, st := range []*server.State{states[prev], states[s]} {
				k8s, istio, err := st.FreshParties()
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				revs[j] = muppet.Snapshot(st.Sys, []*muppet.Party{k8s, istio})
				if j == 1 {
					snap = append(snap, msSince(t0))
				}
			}
			t0 := time.Now()
			muppet.CompareRevisions(revs[0], revs[1])
			cmp = append(cmp, msSince(t0))
			prev = s
		}
	}
	l.set("delta.snapshot_ms", mean(snap), "replay: muppet.Snapshot of each step's new revision")
	l.set("delta.compare_ms", mean(cmp), "replay: muppet.CompareRevisions on each step's revision pair")
	l.finish("not measurable from outside on revise: the rebase solve runs inside the watch hub (in-program spans are a later change), or the layer is bypassed")
	return l, nil
}
