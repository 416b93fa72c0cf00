package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"muppet"
	"muppet/internal/feder"
	"muppet/internal/tenant"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen for a
// workload spanning sub-millisecond warm cache hits to multi-second cold
// solves.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram in Prometheus's
// cumulative exposition shape.
type histogram struct {
	counts []int64 // per-bucket, non-cumulative; cumulated at exposition
	count  int64
	sum    float64
}

func (h *histogram) observe(seconds float64) {
	if h.counts == nil {
		h.counts = make([]int64, len(latencyBuckets))
	}
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
			break
		}
	}
	h.count++
	h.sum += seconds
}

// metrics aggregates the serving counters the /metrics endpoint exposes.
// All request-path updates take one short mutex; the scrape path reads
// under the same mutex plus checkin-time pool snapshots — it never
// touches the live single-goroutine SolveCaches.
type metrics struct {
	mu         sync.Mutex
	requests   map[string]map[int]int64            // op → verdict code → count
	latency    map[string]*histogram               // op → seconds histogram
	tenants    map[string]map[string]map[int]int64 // tenant → op → code → count
	rejections int64
	drops      int64 // admitted jobs abandoned before a worker picked them up
	panics     int64 // worker panics caught by the recovery middleware

	fedRounds   map[string]int64 // federation role (coordinator|peer) → rounds driven
	fedRetries  map[string]int64 // peer → coordinator retry attempts
	fedReplays  int64            // idempotent replays served by the peer side
	fedBreakers map[string]int64 // peer → breaker state (0 closed, 1 half-open, 2 open)
}

func newMetrics() *metrics {
	return &metrics{
		requests:    make(map[string]map[int]int64),
		latency:     make(map[string]*histogram),
		tenants:     make(map[string]map[string]map[int]int64),
		fedRounds:   make(map[string]int64),
		fedRetries:  make(map[string]int64),
		fedBreakers: make(map[string]int64),
	}
}

func (m *metrics) observe(tenantID, op string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[op]
	if byCode == nil {
		byCode = make(map[int]int64)
		m.requests[op] = byCode
	}
	byCode[code]++
	byOp := m.tenants[tenantID]
	if byOp == nil {
		byOp = make(map[string]map[int]int64)
		m.tenants[tenantID] = byOp
	}
	if byOp[op] == nil {
		byOp[op] = make(map[int]int64)
	}
	byOp[op][code]++
	h := m.latency[op]
	if h == nil {
		h = &histogram{}
		m.latency[op] = h
	}
	h.observe(seconds)
}

func (m *metrics) reject() {
	m.mu.Lock()
	m.rejections++
	m.mu.Unlock()
}

func (m *metrics) drop() {
	m.mu.Lock()
	m.drops++
	m.mu.Unlock()
}

func (m *metrics) panic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

func (m *metrics) fedRound(role string) {
	m.mu.Lock()
	m.fedRounds[role]++
	m.mu.Unlock()
}

func (m *metrics) fedRetry(peer string) {
	m.mu.Lock()
	m.fedRetries[peer]++
	m.mu.Unlock()
}

func (m *metrics) fedReplay() {
	m.mu.Lock()
	m.fedReplays++
	m.mu.Unlock()
}

func (m *metrics) fedBreaker(peer string, st feder.BreakerState) {
	m.mu.Lock()
	m.fedBreakers[peer] = int64(st)
	m.mu.Unlock()
}

// scrape is the instantaneous (non-counter) state the server assembles
// for one /metrics exposition: queue occupancy, the per-tenant registry
// and pool snapshots, and the ledger totals.
type scrape struct {
	queueDepth, queueCap, workers int
	reuse                         muppet.ReuseStats
	tenants                       []tenantScrape
	budgetBytes                   int64
	idleBytes                     int64
	ledgerEvictions               int64
	watchers                      int64
	watchEvents                   int64
}

// tenantScrape is one tenant's slice of a scrape.
type tenantScrape struct {
	ID       string
	Revision int64
	Reloads  int64
	Pool     tenant.PoolStats
}

// write renders the Prometheus text exposition format (version 0.0.4) by
// hand — the format is a stable line protocol, and hand-rolling it keeps
// the daemon dependency-free.
func (m *metrics) write(w io.Writer, sc scrape) {
	queueDepth, queueCap, workers := sc.queueDepth, sc.queueCap, sc.workers
	reuse := sc.reuse
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP muppetd_requests_total Mediation requests served, by op and verdict code.")
	fmt.Fprintln(w, "# TYPE muppetd_requests_total counter")
	for _, op := range sortedKeys(m.requests) {
		byCode := m.requests[op]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "muppetd_requests_total{op=%q,code=\"%d\"} %d\n", op, c, byCode[c])
		}
	}

	fmt.Fprintln(w, "# HELP muppetd_request_duration_seconds Request latency from admission to response, by op.")
	fmt.Fprintln(w, "# TYPE muppetd_request_duration_seconds histogram")
	for _, op := range sortedKeys(m.latency) {
		h := m.latency[op]
		var cum int64
		for i, le := range latencyBuckets {
			if h.counts != nil {
				cum += h.counts[i]
			}
			fmt.Fprintf(w, "muppetd_request_duration_seconds_bucket{op=%q,le=\"%g\"} %d\n", op, le, cum)
		}
		fmt.Fprintf(w, "muppetd_request_duration_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", op, h.count)
		fmt.Fprintf(w, "muppetd_request_duration_seconds_sum{op=%q} %g\n", op, h.sum)
		fmt.Fprintf(w, "muppetd_request_duration_seconds_count{op=%q} %d\n", op, h.count)
	}

	fmt.Fprintln(w, "# HELP muppetd_rejections_total Requests rejected 429 by the admission queue.")
	fmt.Fprintln(w, "# TYPE muppetd_rejections_total counter")
	fmt.Fprintf(w, "muppetd_rejections_total %d\n", m.rejections)

	fmt.Fprintln(w, "# HELP muppetd_queue_drops_total Admitted jobs whose client vanished before a worker picked them up.")
	fmt.Fprintln(w, "# TYPE muppetd_queue_drops_total counter")
	fmt.Fprintf(w, "muppetd_queue_drops_total %d\n", m.drops)

	fmt.Fprintln(w, "# HELP muppetd_panics_total Worker panics caught by the recovery middleware.")
	fmt.Fprintln(w, "# TYPE muppetd_panics_total counter")
	fmt.Fprintf(w, "muppetd_panics_total %d\n", m.panics)

	if len(m.fedRounds) > 0 {
		fmt.Fprintln(w, "# HELP muppetd_fed_rounds_total Federated negotiation rounds, by role.")
		fmt.Fprintln(w, "# TYPE muppetd_fed_rounds_total counter")
		for _, role := range sortedKeys(m.fedRounds) {
			fmt.Fprintf(w, "muppetd_fed_rounds_total{role=%q} %d\n", role, m.fedRounds[role])
		}
	}
	if len(m.fedRetries) > 0 {
		fmt.Fprintln(w, "# HELP muppetd_fed_retries_total Coordinator retry attempts, by peer.")
		fmt.Fprintln(w, "# TYPE muppetd_fed_retries_total counter")
		for _, peer := range sortedKeys(m.fedRetries) {
			fmt.Fprintf(w, "muppetd_fed_retries_total{peer=%q} %d\n", peer, m.fedRetries[peer])
		}
	}
	if m.fedReplays > 0 {
		fmt.Fprintln(w, "# HELP muppetd_fed_replays_total Idempotent federation replays served instead of re-solving.")
		fmt.Fprintln(w, "# TYPE muppetd_fed_replays_total counter")
		fmt.Fprintf(w, "muppetd_fed_replays_total %d\n", m.fedReplays)
	}
	if len(m.fedBreakers) > 0 {
		fmt.Fprintln(w, "# HELP muppetd_fed_breaker_state Per-peer circuit breaker position (0 closed, 1 half-open, 2 open).")
		fmt.Fprintln(w, "# TYPE muppetd_fed_breaker_state gauge")
		for _, peer := range sortedKeys(m.fedBreakers) {
			fmt.Fprintf(w, "muppetd_fed_breaker_state{peer=%q} %d\n", peer, m.fedBreakers[peer])
		}
	}

	fmt.Fprintln(w, "# HELP muppetd_queue_depth Jobs admitted and waiting for a worker.")
	fmt.Fprintln(w, "# TYPE muppetd_queue_depth gauge")
	fmt.Fprintf(w, "muppetd_queue_depth %d\n", queueDepth)

	fmt.Fprintln(w, "# HELP muppetd_queue_capacity Admission queue bound.")
	fmt.Fprintln(w, "# TYPE muppetd_queue_capacity gauge")
	fmt.Fprintf(w, "muppetd_queue_capacity %d\n", queueCap)

	fmt.Fprintln(w, "# HELP muppetd_workers Solver worker goroutines.")
	fmt.Fprintln(w, "# TYPE muppetd_workers gauge")
	fmt.Fprintf(w, "muppetd_workers %d\n", workers)

	fmt.Fprintln(w, "# HELP muppetd_sessions_built_total Solver sessions built (SolveCache misses), summed over workers.")
	fmt.Fprintln(w, "# TYPE muppetd_sessions_built_total counter")
	fmt.Fprintf(w, "muppetd_sessions_built_total %d\n", reuse.Sessions)

	fmt.Fprintln(w, "# HELP muppetd_session_reuses_total Requests served from a live warm session, summed over workers.")
	fmt.Fprintln(w, "# TYPE muppetd_session_reuses_total counter")
	fmt.Fprintf(w, "muppetd_session_reuses_total %d\n", reuse.Reuses)

	fmt.Fprintln(w, "# HELP muppetd_translation_cache_total Translation-cache events across every session built, evicted ones included, by kind.")
	fmt.Fprintln(w, "# TYPE muppetd_translation_cache_total counter")
	fmt.Fprintf(w, "muppetd_translation_cache_total{kind=\"struct_hit\"} %d\n", reuse.Translation.StructHits)
	fmt.Fprintf(w, "muppetd_translation_cache_total{kind=\"miss\"} %d\n", reuse.Translation.Misses)

	fmt.Fprintln(w, "# HELP muppetd_encoding_circuit_nodes AIG nodes allocated across live sessions.")
	fmt.Fprintln(w, "# TYPE muppetd_encoding_circuit_nodes gauge")
	fmt.Fprintf(w, "muppetd_encoding_circuit_nodes %d\n", reuse.Encoding.CircuitNodes)

	fmt.Fprintln(w, "# HELP muppetd_encoding_solver_vars SAT variables across live sessions.")
	fmt.Fprintln(w, "# TYPE muppetd_encoding_solver_vars gauge")
	fmt.Fprintf(w, "muppetd_encoding_solver_vars %d\n", reuse.Encoding.SolverVars)

	fmt.Fprintln(w, "# HELP muppetd_encoding_solver_clauses Problem clauses across live sessions, after preprocessing.")
	fmt.Fprintln(w, "# TYPE muppetd_encoding_solver_clauses gauge")
	fmt.Fprintf(w, "muppetd_encoding_solver_clauses %d\n", reuse.Encoding.SolverClauses)

	fmt.Fprintln(w, "# HELP muppetd_encoding_vars_eliminated Variables currently eliminated by CNF preprocessing across live sessions.")
	fmt.Fprintln(w, "# TYPE muppetd_encoding_vars_eliminated gauge")
	fmt.Fprintf(w, "muppetd_encoding_vars_eliminated %d\n", reuse.Encoding.VarsEliminated)

	fmt.Fprintln(w, "# HELP muppetd_encoding_clauses_removed_total Clauses removed by CNF preprocessing across every session built.")
	fmt.Fprintln(w, "# TYPE muppetd_encoding_clauses_removed_total counter")
	fmt.Fprintf(w, "muppetd_encoding_clauses_removed_total %d\n", reuse.Encoding.ClausesRemoved)

	fmt.Fprintln(w, "# HELP muppetd_solver_arena_bytes Exact clause-arena backing bytes across live sessions.")
	fmt.Fprintln(w, "# TYPE muppetd_solver_arena_bytes gauge")
	fmt.Fprintf(w, "muppetd_solver_arena_bytes %d\n", reuse.Encoding.ArenaBytes)

	fmt.Fprintln(w, "# HELP muppetd_solver_restored_total Variables un-eliminated because an incremental addition touched them, across every session built.")
	fmt.Fprintln(w, "# TYPE muppetd_solver_restored_total counter")
	fmt.Fprintf(w, "muppetd_solver_restored_total %d\n", reuse.Encoding.Restored)

	fmt.Fprintln(w, "# HELP muppetd_tenants Tenants currently registered.")
	fmt.Fprintln(w, "# TYPE muppetd_tenants gauge")
	fmt.Fprintf(w, "muppetd_tenants %d\n", len(sc.tenants))

	fmt.Fprintln(w, "# HELP muppetd_tenant_revision Current revision of each tenant (bumps on hot reload).")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_revision gauge")
	for _, t := range sc.tenants {
		fmt.Fprintf(w, "muppetd_tenant_revision{tenant=%q} %d\n", t.ID, t.Revision)
	}

	fmt.Fprintln(w, "# HELP muppetd_tenant_reloads_total Successful hot reloads per tenant.")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_reloads_total counter")
	for _, t := range sc.tenants {
		fmt.Fprintf(w, "muppetd_tenant_reloads_total{tenant=%q} %d\n", t.ID, t.Reloads)
	}

	fmt.Fprintln(w, "# HELP muppetd_tenant_requests_total Mediation requests served, by tenant, op, and verdict code.")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_requests_total counter")
	for _, tid := range sortedKeys(m.tenants) {
		byOp := m.tenants[tid]
		for _, op := range sortedKeys(byOp) {
			byCode := byOp[op]
			codes := make([]int, 0, len(byCode))
			for c := range byCode {
				codes = append(codes, c)
			}
			sort.Ints(codes)
			for _, c := range codes {
				fmt.Fprintf(w, "muppetd_tenant_requests_total{tenant=%q,op=%q,code=\"%d\"} %d\n", tid, op, c, byCode[c])
			}
		}
	}

	fmt.Fprintln(w, "# HELP muppetd_tenant_cache_idle_caches Warm caches idle in each tenant's pool.")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_cache_idle_caches gauge")
	for _, t := range sc.tenants {
		fmt.Fprintf(w, "muppetd_tenant_cache_idle_caches{tenant=%q} %d\n", t.ID, t.Pool.IdleCount)
	}

	fmt.Fprintln(w, "# HELP muppetd_tenant_cache_bytes Approximate bytes of each tenant's idle warm caches.")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_cache_bytes gauge")
	for _, t := range sc.tenants {
		fmt.Fprintf(w, "muppetd_tenant_cache_bytes{tenant=%q} %d\n", t.ID, t.Pool.Bytes)
	}

	fmt.Fprintln(w, "# HELP muppetd_tenant_cache_evictions_total Warm sessions evicted from each tenant's pool for budget pressure.")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_cache_evictions_total counter")
	for _, t := range sc.tenants {
		fmt.Fprintf(w, "muppetd_tenant_cache_evictions_total{tenant=%q} %d\n", t.ID, t.Pool.Evictions)
	}

	fmt.Fprintln(w, "# HELP muppetd_tenant_sessions_built_total Solver sessions built per tenant (cache misses).")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_sessions_built_total counter")
	for _, t := range sc.tenants {
		fmt.Fprintf(w, "muppetd_tenant_sessions_built_total{tenant=%q} %d\n", t.ID, t.Pool.Reuse.Sessions)
	}

	fmt.Fprintln(w, "# HELP muppetd_tenant_session_reuses_total Requests served from a live warm session, per tenant.")
	fmt.Fprintln(w, "# TYPE muppetd_tenant_session_reuses_total counter")
	for _, t := range sc.tenants {
		fmt.Fprintf(w, "muppetd_tenant_session_reuses_total{tenant=%q} %d\n", t.ID, t.Pool.Reuse.Reuses)
	}

	fmt.Fprintln(w, "# HELP muppetd_cache_budget_bytes Configured idle warm-cache byte budget across all tenants (0 = unlimited).")
	fmt.Fprintln(w, "# TYPE muppetd_cache_budget_bytes gauge")
	fmt.Fprintf(w, "muppetd_cache_budget_bytes %d\n", sc.budgetBytes)

	fmt.Fprintln(w, "# HELP muppetd_cache_idle_bytes Accounted bytes of idle warm caches across all tenants.")
	fmt.Fprintln(w, "# TYPE muppetd_cache_idle_bytes gauge")
	fmt.Fprintf(w, "muppetd_cache_idle_bytes %d\n", sc.idleBytes)

	fmt.Fprintln(w, "# HELP muppetd_cache_evictions_total Warm sessions evicted for budget pressure across all tenants.")
	fmt.Fprintln(w, "# TYPE muppetd_cache_evictions_total counter")
	fmt.Fprintf(w, "muppetd_cache_evictions_total %d\n", sc.ledgerEvictions)

	fmt.Fprintln(w, "# HELP muppetd_watchers Watch-mode requests currently connected (long-poll and SSE).")
	fmt.Fprintln(w, "# TYPE muppetd_watchers gauge")
	fmt.Fprintf(w, "muppetd_watchers %d\n", sc.watchers)

	fmt.Fprintln(w, "# HELP muppetd_watch_events_total Watch events published (baselines, revision updates, terminals).")
	fmt.Fprintln(w, "# TYPE muppetd_watch_events_total counter")
	fmt.Fprintf(w, "muppetd_watch_events_total %d\n", sc.watchEvents)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
