package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/tenant"
)

// Watch mode: the daemon pushes "the goals changed → here is the new
// minimal edit" instead of being polled with full requests. A watcher
// subscribes to one (tenant, op) pair; on every registry revision swap
// the hub diffs the old and new bundle revisions (package delta), serves
// the op through the warm Rebase path when the registry kept the
// revision on the same System (cold rebuild otherwise), and publishes
// exactly one event per revision to every subscriber — long-poll
// (`GET ...?rev=N`) and SSE (`?stream=1`) are two views of the same
// sticky per-op event state.
//
// All solving happens on a single hub worker goroutine with its own
// SolveCache per tenant, so watch-mode solves never race the request
// pool's caches and events are naturally ordered.

// WatchEvent is one watch-mode update: the op's verdict for a bundle
// revision plus the delta that produced it. Terminal events (drain,
// tenant removal) carry a Reason and no verdict.
type WatchEvent struct {
	Tenant   string       `json:"tenant"`
	Revision int64        `json:"revision"`
	Op       string       `json:"op"`
	Party    string       `json:"party,omitempty"`
	Code     int          `json:"code"`
	Output   string       `json:"output"`
	Delta    *DeltaReport `json:"delta,omitempty"`
	Terminal bool         `json:"terminal,omitempty"`
	Reason   string       `json:"reason,omitempty"`
}

// DeltaReport is the wire shape of muppet.DeltaStats plus the plan's
// human-readable summary: how the event's answer was computed.
type DeltaReport struct {
	Cold             bool   `json:"cold"`
	Reason           string `json:"reason,omitempty"`
	GroupsKept       int64  `json:"groups_kept"`
	GroupsReasserted int64  `json:"groups_reasserted"`
	GoalsKept        int    `json:"goals_kept"`
	GoalsAdded       int    `json:"goals_added"`
	GoalsRemoved     int    `json:"goals_removed"`
	AtomsChanged     int    `json:"atoms_changed"`
	Restored         int64  `json:"restored"`
	Summary          string `json:"summary,omitempty"`
}

func reportFor(ds muppet.DeltaStats, plan *muppet.DeltaPlan) *DeltaReport {
	rep := &DeltaReport{
		Cold: ds.Cold, Reason: ds.Reason,
		GroupsKept: ds.GroupsKept, GroupsReasserted: ds.GroupsReasserted,
		GoalsKept: ds.GoalsKept, GoalsAdded: ds.GoalsAdded, GoalsRemoved: ds.GoalsRemoved,
		AtomsChanged: ds.AtomsChanged, Restored: ds.Restored,
	}
	if plan != nil {
		rep.Summary = plan.Summary()
	}
	return rep
}

// opWatch is the sticky event state of one watched (op, party) pair:
// once subscribed, the hub recomputes it on every revision swap, so a
// watcher reconnecting after a dropped poll never misses the latest
// verdict. last/update are guarded by the hub mutex; update is closed
// and replaced on every publish (a broadcast).
type opWatch struct {
	req    Request
	last   *WatchEvent
	update chan struct{}
}

// tenantWatch is one tenant's watch state at one revision. The registry
// anchors each revision (see SetRebase in NewMulti), so the cache's
// sessions were ground over state.Sys: a revision on the same System
// keeps the cache, one on a new System resets it. All fields are
// hub-worker-owned except the opWatch internals above.
type tenantWatch struct {
	id       string
	state    *State
	cache    *muppet.SolveCache
	prevRev  *muppet.DeltaRevision
	revision int64
	ops      map[string]*opWatch
}

var errHubClosed = errors.New("watch hub closed")

type watchHub struct {
	srv     *Server
	tenants map[string]*tenantWatch // worker-owned

	mu    sync.Mutex
	queue []func()

	kick    chan struct{}
	closing chan struct{}
	done    chan struct{}
	once    sync.Once

	watchers int64 // gauge: connected watch requests
	events   int64 // counter: events published
}

func newWatchHub(s *Server) *watchHub {
	h := &watchHub{
		srv:     s,
		tenants: make(map[string]*tenantWatch),
		kick:    make(chan struct{}, 1),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go h.run()
	return h
}

// enqueue appends a job for the worker; never blocks, preserves order
// (registry swap hooks run under the reload lock and must not stall).
func (h *watchHub) enqueue(j func()) {
	h.mu.Lock()
	h.queue = append(h.queue, j)
	h.mu.Unlock()
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

func (h *watchHub) next() func() {
	for {
		h.mu.Lock()
		if len(h.queue) > 0 {
			j := h.queue[0]
			h.queue = h.queue[1:]
			h.mu.Unlock()
			return j
		}
		h.mu.Unlock()
		select {
		case <-h.kick:
		case <-h.closing:
			// Drain what was queued before the close, then stop.
			h.mu.Lock()
			if len(h.queue) > 0 {
				j := h.queue[0]
				h.queue = h.queue[1:]
				h.mu.Unlock()
				return j
			}
			h.mu.Unlock()
			return nil
		}
	}
}

func (h *watchHub) run() {
	for {
		j := h.next()
		if j == nil {
			for _, id := range h.tenantIDs() {
				h.terminate(h.tenants[id], "drain")
				delete(h.tenants, id)
			}
			close(h.done)
			return
		}
		j()
	}
}

func (h *watchHub) tenantIDs() []string {
	ids := make([]string, 0, len(h.tenants))
	for id := range h.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// shutdown starts the close (non-blocking, safe from Drain); the worker
// publishes terminal drain events to every subscriber on its way out.
func (h *watchHub) shutdown() { h.once.Do(func() { close(h.closing) }) }

func (h *watchHub) publish(ow *opWatch, ev *WatchEvent) {
	h.mu.Lock()
	ow.last = ev
	ch := ow.update
	ow.update = make(chan struct{})
	h.mu.Unlock()
	close(ch)
	atomic.AddInt64(&h.events, 1)
}

// current snapshots an op's sticky state: the last event and the channel
// the next publish will close.
func (h *watchHub) current(ow *opWatch) (*WatchEvent, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return ow.last, ow.update
}

func watchKey(req Request) string { return req.Op + "|" + req.Party + "|" + req.Provider }

// ensure subscribes a (tenant, op) pair, computing its baseline event on
// the worker if it is new. Returns once the op has a publishable state.
func (h *watchHub) ensure(ctx context.Context, tenantID string, req Request) (*opWatch, error) {
	type res struct {
		ow  *opWatch
		err error
	}
	ch := make(chan res, 1)
	h.enqueue(func() { ow, err := h.subscribe(tenantID, req); ch <- res{ow, err} })
	select {
	case r := <-ch:
		return r.ow, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-h.done:
		return nil, errHubClosed
	}
}

// subscribe runs on the worker.
func (h *watchHub) subscribe(tenantID string, req Request) (*opWatch, error) {
	tw := h.tenants[tenantID]
	if tw == nil {
		ent, ok := h.srv.registry.Get(tenantID)
		if !ok {
			return nil, fmt.Errorf("%w: unknown tenant %q", ErrUsage, tenantID)
		}
		snap, err := ent.State.Snapshot()
		if err != nil {
			return nil, err
		}
		tw = &tenantWatch{
			id: tenantID, state: ent.State, cache: muppet.NewSolveCache(),
			prevRev: snap, revision: ent.Revision, ops: make(map[string]*opWatch),
		}
		h.tenants[tenantID] = tw
	}
	key := watchKey(req)
	if ow := tw.ops[key]; ow != nil {
		return ow, nil
	}
	ow := &opWatch{req: req, update: make(chan struct{})}
	ev, err := h.runOp(tw, ow, tw.state, nil, tw.revision)
	if err != nil {
		return nil, err // not registered; the next subscriber retries
	}
	ev.Delta.Reason = "baseline"
	tw.ops[key] = ow
	h.publish(ow, ev)
	return ow, nil
}

// runOp serves one op for one revision through the Rebase path on the
// tenant's hub cache (worker only). plan == nil is the baseline case.
func (h *watchHub) runOp(tw *tenantWatch, ow *opWatch, st *State, plan *muppet.DeltaPlan, revision int64) (*WatchEvent, error) {
	ctx := h.srv.solveCtx
	cancel := context.CancelFunc(func() {})
	if h.srv.opts.MaxTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, h.srv.opts.MaxTimeout)
	}
	defer cancel()
	b := muppet.Budget{}
	if dl, ok := ctx.Deadline(); ok {
		b.Deadline = dl
	}
	var resp Response
	var execErr error
	ds := tw.cache.Rebase(plan, func() {
		resp, execErr = h.srv.execFn(ctx, st, tw.cache, ow.req, b)
	})
	if execErr != nil {
		return nil, execErr
	}
	return &WatchEvent{
		Tenant: tw.id, Revision: revision, Op: ow.req.Op, Party: ow.req.Party,
		Code: resp.Code, Output: resp.Output, Delta: reportFor(ds, plan),
	}, nil
}

// onSwap is the registry hook: it runs under the reload lock, so it only
// queues the work.
func (h *watchHub) onSwap(old, new *tenant.Entry[*State]) {
	h.enqueue(func() { h.handleSwap(old, new) })
}

// handleSwap recomputes every watched op of a swapped tenant (worker
// only): snapshot the new revision, diff against the previous one, and
// serve it on the hub cache, which stays warm while the registry keeps
// the tenant's System and resets when it does not. A revision the hub
// already serves (its subscribe ran after the swap) is skipped.
func (h *watchHub) handleSwap(old, new *tenant.Entry[*State]) {
	id := ""
	if new != nil {
		id = new.ID
	} else if old != nil {
		id = old.ID
	}
	tw := h.tenants[id]
	if tw == nil {
		return // nobody watches this tenant
	}
	if new == nil {
		h.terminate(tw, "tenant removed")
		delete(h.tenants, id)
		return
	}
	if new.Revision <= tw.revision {
		return
	}
	st := new.State
	snap, err := st.Snapshot()
	if err != nil {
		h.terminate(tw, "reload snapshot failed: "+err.Error())
		delete(h.tenants, id)
		return
	}
	plan := muppet.CompareRevisions(tw.prevRev, snap)
	if st.Sys != tw.state.Sys {
		tw.cache = muppet.NewSolveCache() // sessions of another System: go cold
	}
	tw.state = st
	tw.prevRev = snap
	tw.revision = new.Revision
	for _, key := range tw.opKeys() {
		ow := tw.ops[key]
		ev, err := h.runOp(tw, ow, st, plan, new.Revision)
		if err != nil {
			ev = &WatchEvent{
				Tenant: id, Revision: new.Revision, Op: ow.req.Op, Party: ow.req.Party,
				Code: CodeInternal, Output: "error: " + err.Error(), Delta: reportFor(muppet.DeltaStats{}, plan),
			}
		}
		h.publish(ow, ev)
	}
}

func (tw *tenantWatch) opKeys() []string {
	keys := make([]string, 0, len(tw.ops))
	for k := range tw.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// terminate publishes a terminal event (no verdict) to every op of a
// tenant — drain or removal; streams close, long-polls return it once.
func (h *watchHub) terminate(tw *tenantWatch, reason string) {
	for _, key := range tw.opKeys() {
		ow := tw.ops[key]
		h.publish(ow, &WatchEvent{
			Tenant: tw.id, Revision: tw.revision, Op: ow.req.Op, Party: ow.req.Party,
			Code: CodeIndeterminate, Terminal: true, Reason: reason,
		})
	}
}

// ---- HTTP surface ----

// DefaultWatchPollTimeout bounds a long-poll with no event; the client
// gets 204 and re-polls.
const DefaultWatchPollTimeout = 25 * time.Second

// serveWatch handles GET /t/{tenant}/watch/{op} and /v1/watch/{op}.
// Long-poll by default: block until an event newer than ?rev=N exists
// (204 on poll timeout). ?stream=1 (or Accept: text/event-stream)
// upgrades to SSE: every new event is pushed as `event: update`, and the
// stream ends with `event: done` on drain, tenant removal, or when the
// per-watcher event budget (?events=N, capped by the server option) is
// spent. ?party= and ?provider= parameterize ops that need them.
func (s *Server) serveWatch(w http.ResponseWriter, r *http.Request, tenantID, op string) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	known := false
	for _, o := range Ops() {
		if o == op {
			known = true
			break
		}
	}
	if !known {
		http.Error(w, fmt.Sprintf("unknown op %q", op), http.StatusNotFound)
		return
	}
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	req := Request{Op: op, Party: q.Get("party"), Provider: q.Get("provider")}
	atomic.AddInt64(&s.watch.watchers, 1)
	defer atomic.AddInt64(&s.watch.watchers, -1)
	ow, err := s.watch.ensure(r.Context(), tenantID, req)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			s.metrics.drop()
		case errors.Is(err, ErrUsage):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, errHubClosed):
			http.Error(w, "draining", http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	since, _ := strconv.ParseInt(q.Get("rev"), 10, 64)
	if q.Get("stream") != "" || r.Header.Get("Accept") == "text/event-stream" {
		s.watchStream(w, r, ow, since)
		return
	}
	s.watchPoll(w, r, ow, since)
}

// watchPoll serves one long-poll round: the newest event past ?rev=N, or
// 204 when the poll timeout passes without one.
func (s *Server) watchPoll(w http.ResponseWriter, r *http.Request, ow *opWatch, since int64) {
	pollTimeout := s.opts.WatchPollTimeout
	if pollTimeout <= 0 {
		pollTimeout = DefaultWatchPollTimeout
	}
	timer := time.NewTimer(pollTimeout)
	defer timer.Stop()
	for {
		ev, ch := s.watch.current(ow)
		if ev != nil && (ev.Terminal || ev.Revision > since) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(ev)
			return
		}
		select {
		case <-ch:
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			s.metrics.drop()
			return
		}
	}
}

// watchStream serves SSE until a terminal event, the watcher's event
// budget, or the client hanging up.
func (s *Server) watchStream(w http.ResponseWriter, r *http.Request, ow *opWatch, since int64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotAcceptable)
		return
	}
	maxEvents := s.opts.WatchMaxEvents
	if q := r.URL.Query().Get("events"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 && (maxEvents <= 0 || n < maxEvents) {
			maxEvents = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	sent := 0
	for {
		ev, ch := s.watch.current(ow)
		if ev != nil && (ev.Terminal || ev.Revision > since) {
			name := "update"
			if ev.Terminal {
				name = "done"
			}
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
			flusher.Flush()
			if ev.Terminal {
				return
			}
			since = ev.Revision
			sent++
			if maxEvents > 0 && sent >= maxEvents {
				done := &WatchEvent{
					Tenant: ev.Tenant, Revision: ev.Revision, Op: ev.Op, Party: ev.Party,
					Code: CodeIndeterminate, Terminal: true, Reason: "event budget spent",
				}
				data, _ := json.Marshal(done)
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
				flusher.Flush()
				return
			}
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			s.metrics.drop()
			return
		}
	}
}
