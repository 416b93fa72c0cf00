package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"muppet"
	"muppet/internal/scenario"
	"muppet/internal/server"
	"muppet/internal/tenant"
)

// The serve workload is warm multi-tenant reads: server.NewMulti serves
// a seeded fleet of generated tenants over loopback HTTP with its default
// worker count, and two client connections run closed loops over a
// seeded mix of the five workflow ops.

// serveFleet assigns tenant sizes (services) to the two clients. Each
// client addresses only its own tenants, so no tenant ever has two
// requests in flight: every checkout finds the one primed warm cache and
// no request is served cold. The halves are balanced by work, not count.
var serveFleet = [][]int{{12, 4, 3}, {10, 8, 6}}

// serveOps is one tenant's share of a mix block. Warm answers at
// services=12 take ~1 ms (envelope), ~5-14 ms (check, reconcile,
// negotiate) and ~33 ms (conform); conform gets the lowest weight so it
// does not dominate the time.
var serveOps = []struct {
	req    server.Request
	weight int
}{
	{server.Request{Op: "check", Party: "k8s"}, 2},
	{server.Request{Op: "check", Party: "istio"}, 2},
	{server.Request{Op: "envelope", From: "k8s", To: "istio"}, 3},
	{server.Request{Op: "reconcile"}, 3},
	{server.Request{Op: "conform", Provider: "k8s"}, 1},
	{server.Request{Op: "negotiate"}, 2},
}

// cacheBudget is far above the fleet's warm sessions (a few MiB), so no
// session is ever evicted.
const cacheBudget = 1 << 30

type serveTenant struct {
	id   string
	f    files
	refs []ref // per serveOps entry
}

type serveInputs struct {
	tenants [][]*serveTenant // per client
	seq     [][]serveSlot    // per client: the fixed seeded op sequence
	block   int
}

type serveSlot struct {
	t  *serveTenant
	op int // index into serveOps
}

func genServe(seed int64, dir string) (*serveInputs, error) {
	in := &serveInputs{}
	rng := rngFor(seed, "serve")
	n := 0
	for _, sizes := range serveFleet {
		var ts []*serveTenant
		for _, size := range sizes {
			id := fmt.Sprintf("t%d-s%d", n, size)
			n++
			sc := scenario.Generate(scenarioParams(size, rng.Int63()))
			f, err := fromScenario(sc, false).write(filepath.Join(dir, id))
			if err != nil {
				return nil, err
			}
			ts = append(ts, &serveTenant{id: id, f: f})
		}
		in.tenants = append(in.tenants, ts)
	}
	for _, ts := range in.tenants {
		var block []serveSlot
		for _, t := range ts {
			for oi, op := range serveOps {
				for w := 0; w < op.weight; w++ {
					block = append(block, serveSlot{t: t, op: oi})
				}
			}
		}
		in.block = len(block)
		var seq []serveSlot
		for b := 0; b < seqBlocks; b++ {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			seq = append(seq, block...)
		}
		in.seq = append(in.seq, seq)
	}
	return in, nil
}

func (in *serveInputs) all() []*serveTenant {
	var out []*serveTenant
	for _, ts := range in.tenants {
		out = append(out, ts...)
	}
	return out
}

func (in *serveInputs) references(ctx context.Context) error {
	all := in.all()
	for _, t := range all {
		t.refs = make([]ref, len(serveOps))
	}
	return muppet.FanOut(ctx, 2, len(all)*len(serveOps), func(ctx context.Context, i int) error {
		t, oi := all[i/len(serveOps)], i%len(serveOps)
		want := anyVerdict
		if serveOps[oi].req.Op == "reconcile" {
			want = server.CodeSat // relaxed goals with soft offers reconcile
		}
		r, err := reference(ctx, t.f.Config, serveOps[oi].req, want)
		if err != nil {
			return fmt.Errorf("%s %s: %w", t.id, serveOps[oi].req.Op, err)
		}
		t.refs[oi] = r
		return nil
	})
}

func prepareServe(ctx context.Context, seed int64, dir string) (prepared, error) {
	in, err := genServe(seed, dir)
	if err != nil {
		return nil, err
	}
	if err := in.references(ctx); err != nil {
		return nil, err
	}
	return in, nil
}

// serveCounters are the server-side counters read at window boundaries.
type serveCounters struct {
	metrics map[string]float64
	pools   tenant.PoolStats // summed over the fleet
}

type serveInstance struct {
	in        *serveInputs
	reg       *tenant.Registry[*server.State]
	srv       *server.Server
	ts        *httptest.Server
	client    *http.Client
	before    serveCounters
	beforeErr error
}

// setup loads and compiles the fleet, starts the server and primes every
// tenant×op pair, so the timed ops are all warm.
func (in *serveInputs) setup() (instance, error) {
	reg := tenant.NewRegistry[*server.State](tenant.NewLedger(cacheBudget))
	for _, t := range in.all() {
		if _, err := reg.Add(t.id, server.ManifestLoader(t.f.Manifest)); err != nil {
			return nil, err
		}
	}
	srv := server.NewMulti(reg, server.Options{})
	inst := &serveInstance{
		in: in, reg: reg, srv: srv, ts: httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(serveFleet)}},
	}
	errs := make([]error, len(in.tenants))
	var wg sync.WaitGroup
	for c, ts := range in.tenants {
		wg.Add(1)
		go func(c int, ts []*serveTenant) {
			defer wg.Done()
			for _, t := range ts {
				for oi := range serveOps {
					if err := inst.request(serveSlot{t: t, op: oi}); err != nil && errs[c] == nil {
						errs[c] = fmt.Errorf("priming: %w", err)
					}
				}
			}
		}(c, ts)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			inst.close()
			return nil, err
		}
	}
	return inst, nil
}

func (s *serveInstance) clients() int { return len(s.in.tenants) }
func (s *serveInstance) block() int   { return s.in.block }

func (s *serveInstance) close() {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

func (s *serveInstance) do(c, i int, tr *tracer, opID int64) opResult {
	slot := s.in.seq[c][i%len(s.in.seq[c])]
	op := serveOps[slot.op].req.Op
	sp := tr.begin("serve."+op, -1, opID)
	t0 := time.Now()
	err := s.request(slot)
	lat := time.Since(t0)
	tr.end(sp)
	return opResult{latency: lat, kind: op, err: err}
}

// request POSTs one op to its tenant and checks the answer against the
// tenant's reference.
func (s *serveInstance) request(slot serveSlot) error {
	req := serveOps[slot.op].req
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	url := s.ts.URL + "/t/" + slot.t.id + "/" + req.Op
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s %s: %w", slot.t.id, req.Op, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: read: %w", slot.t.id, req.Op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", slot.t.id, req.Op, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var out server.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", slot.t.id, req.Op, err)
	}
	if err := checkResponse(out.Code, out.Output, slot.t.refs[slot.op]); err != nil {
		return fmt.Errorf("%s %s: %w", slot.t.id, req.Op, err)
	}
	return nil
}

func (s *serveInstance) startWindow() { s.before, s.beforeErr = s.counters() }

// counters scrapes /metrics and sums the fleet's pool stats.
func (s *serveInstance) counters() (serveCounters, error) {
	c := serveCounters{metrics: map[string]float64{}}
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return c, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i] // sum a series over its labels
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			c.metrics[name] += v
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("scrape /metrics: %w", err)
	}
	for _, ent := range s.reg.Entries() {
		ps := ent.Pool.Stats()
		c.pools.Checkouts += ps.Checkouts
		c.pools.Misses += ps.Misses
		c.pools.Reuse.Add(ps.Reuse)
	}
	return c, nil
}

func (in *serveInputs) layers(ctx context.Context, i instance, tw *window, tr *tracer) (*layers, error) {
	s := i.(*serveInstance)
	after, err := s.counters()
	if err == nil {
		err = s.beforeErr
	}
	if err != nil {
		return nil, err
	}
	before := s.before
	l := newLayers()
	delta := func(name string) float64 { return after.metrics[name] - before.metrics[name] }

	handler := ratio(delta("muppetd_request_duration_seconds_sum"), delta("muppetd_request_duration_seconds_count")) * 1000
	l.set("server.handler_ms", handler, "/metrics muppetd_request_duration_seconds sum/count over the traced window")
	l.set("server.transport_ms", mean(tw.latenciesMS(""))-handler, "client mean latency minus server.handler_ms")
	for _, op := range server.Ops() {
		l.set("server.op."+op+"_p50_ms", quantile(tr.durationsMS("serve."+op), 0.5), "client-side median of the op's spans")
	}
	l.set("server.rejected", delta("muppetd_rejections_total"), "/metrics, traced window")
	l.set("server.queue_drops", delta("muppetd_queue_drops_total"), "/metrics, traced window")

	ru, rb := after.pools.Reuse, before.pools.Reuse
	reuses, sessions := float64(ru.Reuses-rb.Reuses), float64(ru.Sessions-rb.Sessions)
	l.set("muppet.session_reuse_ratio", ratio(reuses, reuses+sessions), "ReuseStats summed over pools, traced window")
	hits := float64(ru.Translation.Hits() - rb.Translation.Hits())
	misses := float64(ru.Translation.Misses - rb.Translation.Misses)
	l.set("relational.xlate_hit_ratio", ratio(hits, hits+misses), "ReuseStats summed over pools, traced window")
	checkouts := float64(after.pools.Checkouts - before.pools.Checkouts)
	l.set("tenant.checkout_hit_ratio", 1-ratio(float64(after.pools.Misses-before.pools.Misses), checkouts), "PoolStats, traced window")
	l.set("tenant.idle_cache_mb", float64(s.reg.Ledger().TotalBytes())/mib, "Ledger.TotalBytes at the end of the traced window")
	enc := ru.Encoding
	const live = "EncodingStats of the fleet's live warm sessions (total)"
	l.set("sat.arena_mb", float64(enc.ArenaBytes)/mib, live)
	l.set("sat.learnt_clauses", float64(enc.LearntClauses), live)
	l.set("boolcirc.nodes", float64(enc.CircuitNodes), live)
	l.set("sat.clauses", float64(enc.SolverClauses), live)
	l.set("sat.vars", float64(enc.SolverVars), live)

	// Replays over the fleet, each stage on every tenant, mean per tenant.
	const reps = 5
	var parse, system, parties, env []float64
	for _, t := range in.all() {
		for r := 0; r < reps; r++ {
			rt := newTracer()
			st, err := loadTraced(t.f.Config, rt, -1, 0)
			if err != nil {
				return nil, err
			}
			stats := rt.stats()
			parse = append(parse, stats["mesh.parse"].TotalMS)
			system = append(system, stats["encode.system"].TotalMS)
			t0 := time.Now()
			k8s, istio, err := st.FreshParties()
			if err != nil {
				return nil, err
			}
			parties = append(parties, msSince(t0))
			t0 = time.Now()
			if _, err := muppet.ComputeEnvelopeCtx(ctx, st.Sys, istio, []*muppet.Party{k8s}); err != nil {
				return nil, err
			}
			env = append(env, msSince(t0))
		}
	}
	l.set("mesh.parse_ms", mean(parse), "replay: a tenant load's bundle YAML + goal CSVs (set-up cost on serve), mean per tenant")
	l.set("encode.system_ms", mean(system), "replay: muppet.NewSystem per tenant load (set-up cost on serve)")
	l.set("encode.parties_ms", mean(parties), "replay: State.FreshParties, which every request runs, mean per tenant")
	l.set("envelope.compute_ms", mean(env), "replay: muppet.ComputeEnvelopeCtx on each tenant's parties, as the envelope op runs it")
	l.finish("not measurable from outside on serve: warm solves run inside the pool's SolveCache (in-program spans are a later change), or the layer is bypassed (watch, delta)")
	return l, nil
}
