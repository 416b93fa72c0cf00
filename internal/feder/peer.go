package feder

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"muppet"
)

// PeerHooks are optional observability callbacks for a peer mediator
// (wired to the daemon's Prometheus counters). Any field may be nil.
type PeerHooks struct {
	OnRound  func() // one envelope round served (a solve ran)
	OnReplay func() // an idempotent replay was served instead of a re-solve
}

func (h PeerHooks) round() {
	if h.OnRound != nil {
		h.OnRound()
	}
}

func (h PeerHooks) replay() {
	if h.OnReplay != nil {
		h.OnReplay()
	}
}

// Peer serves one party's side of the federated negotiation protocol:
// /fed/join, /fed/propose, /fed/envelope, /fed/install, /fed/describe.
// It holds only this party's private bundle; envelopes and configuration
// offers are all that cross the trust boundary.
type Peer struct {
	sys         *muppet.System
	vocab       *Vocab
	fingerprint string
	newParty    func() (*LocalParty, error)
	hooks       PeerHooks

	// MaxSessions caps concurrent negotiation sessions (LRU-evicted).
	MaxSessions int

	mu       sync.Mutex
	sessions map[string]*fedSession
	use      map[string]int64 // session id → last-use tick
	tick     int64
}

// fedSession is one negotiation's server-side state: a fresh party
// (private goals + current configuration), a warm solve cache, and the
// idempotency replay log. Solves are serialized per session (the cache
// is single-goroutine); distinct sessions solve concurrently.
type fedSession struct {
	mu     sync.Mutex
	lp     *LocalParty
	cache  *muppet.SolveCache
	replay map[string][]byte // idempotency key → recorded response body
}

// NewPeer builds a peer mediator. newParty is called once per session to
// materialize the party from the daemon's current state (so tenant hot
// reloads apply to new sessions without tearing live ones).
func NewPeer(sys *muppet.System, newParty func() (*LocalParty, error), hooks PeerHooks) *Peer {
	return &Peer{
		sys:         sys,
		vocab:       NewVocab(sys),
		fingerprint: SystemFingerprint(sys),
		newParty:    newParty,
		hooks:       hooks,
		MaxSessions: 16,
		sessions:    make(map[string]*fedSession),
		use:         make(map[string]int64),
	}
}

// Fingerprint exposes the peer's system fingerprint (tests, handshakes).
func (p *Peer) Fingerprint() string { return p.fingerprint }

func (p *Peer) lookup(id string) *fedSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sessions[id]
	if s != nil {
		p.tick++
		p.use[id] = p.tick
	}
	return s
}

func (p *Peer) open(id string) (*fedSession, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.sessions[id]; s != nil {
		p.tick++
		p.use[id] = p.tick
		return s, nil
	}
	lp, err := p.newParty()
	if err != nil {
		return nil, err
	}
	if len(p.sessions) >= p.MaxSessions {
		oldest, best := "", int64(1<<62)
		for sid, t := range p.use {
			if t < best {
				oldest, best = sid, t
			}
		}
		delete(p.sessions, oldest)
		delete(p.use, oldest)
	}
	s := &fedSession{lp: lp, cache: muppet.NewSolveCache(), replay: make(map[string][]byte)}
	p.sessions[id] = s
	p.tick++
	p.use[id] = p.tick
	return s, nil
}

// Handler mounts the protocol endpoints under /fed/.
func (p *Peer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := strings.TrimPrefix(r.URL.Path, "/fed/")
		if r.Method != http.MethodPost {
			writeWireError(w, http.StatusMethodNotAllowed, ErrCodeUsage, "POST only")
			return
		}
		switch op {
		case "join":
			p.serveJoin(w, r)
		case "propose":
			p.servePropose(w, r)
		case "envelope":
			p.serveEnvelope(w, r)
		case "install":
			p.serveInstall(w, r)
		case "describe":
			p.serveDescribe(w, r)
		default:
			writeWireError(w, http.StatusNotFound, ErrCodeUsage, fmt.Sprintf("unknown federation op %q", op))
		}
	})
}

func writeWireError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(WireError{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(v); err != nil {
		writeWireError(w, http.StatusBadRequest, ErrCodeUsage, "malformed request body: "+err.Error())
		return false
	}
	return true
}

func (p *Peer) serveJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Session == "" {
		writeWireError(w, http.StatusBadRequest, ErrCodeUsage, "missing session id")
		return
	}
	if req.Fingerprint != "" && req.Fingerprint != p.fingerprint {
		writeWireError(w, http.StatusConflict, ErrCodeFingerprint,
			"system fingerprint mismatch: coordinator and peer are configured over different universes")
		return
	}
	s, err := p.open(req.Session)
	if err != nil {
		writeWireError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error())
		return
	}
	s.mu.Lock()
	resp := JoinResponse{
		Party:       s.lp.P.Name,
		Kind:        s.lp.Kind(),
		Mode:        s.lp.Mode(),
		Fingerprint: p.fingerprint,
		Digest:      s.lp.Digest(),
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

func (p *Peer) servePropose(w http.ResponseWriter, r *http.Request) {
	var req ProposeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s := p.lookup(req.Session)
	if s == nil {
		writeWireError(w, http.StatusNotFound, ErrCodeUnknownSession, "unknown session (peer restarted?)")
		return
	}
	s.mu.Lock()
	resp := ProposeResponse{Digest: s.lp.Digest()}
	s.mu.Unlock()
	writeJSON(w, resp)
}

// wireBudget rebuilds the coordinator's remaining solver budget.
func wireBudget(millis, conflicts, propagations int64) muppet.Budget {
	b := muppet.Budget{MaxConflicts: conflicts, MaxPropagations: propagations}
	if millis > 0 {
		b.Deadline = time.Now().Add(time.Duration(millis) * time.Millisecond)
	}
	return b
}

func (p *Peer) serveEnvelope(w http.ResponseWriter, r *http.Request) {
	var req EnvelopeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s := p.lookup(req.Session)
	if s == nil {
		writeWireError(w, http.StatusNotFound, ErrCodeUnknownSession, "unknown session (peer restarted?)")
		return
	}
	if req.Env == nil {
		writeWireError(w, http.StatusBadRequest, ErrCodeUsage, "missing envelope")
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.replay[req.Idem]; ok && req.Idem != "" {
		// A retried round: the offer was already applied (at most once);
		// return the recorded counter-offer without re-solving.
		p.hooks.replay()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Fed-Replay", "1")
		w.Write(prev)
		return
	}

	env, err := p.vocab.DecodeEnvelope(req.Env)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, ErrCodeUsage, err.Error())
		return
	}
	others := make([]*muppet.Party, 0, len(req.Others))
	for _, o := range req.Others {
		op, err := RebuildParty(p.sys, o)
		if err != nil {
			writeWireError(w, http.StatusBadRequest, ErrCodeUsage, err.Error())
			return
		}
		others = append(others, op)
	}

	p.hooks.round()
	co := p.counterOffer(r.Context(), s, env, others,
		wireBudget(req.BudgetMillis, req.MaxConflicts, req.MaxPropagations))

	// Indeterminate results made no state change and may be artifacts of
	// a dropped connection (the solve was cancelled mid-flight); never
	// record them, so a retry re-runs the round.
	if req.Idem != "" && co.Result != ResultIndeterminate {
		// Record the exact bytes writeJSON sends (Encoder appends \n) so a
		// replay is byte-identical to the first delivery.
		if raw, err := json.Marshal(co); err == nil {
			s.replay[req.Idem] = append(raw, '\n')
		}
	}
	writeJSON(w, co)
}

// counterOffer runs the acting party's revision turn of one negotiation
// round: the Fig. 8 revision aid Negotiation.RunCtx runs in process.
func (p *Peer) counterOffer(ctx context.Context, s *fedSession, env *muppet.Envelope, others []*muppet.Party, b muppet.Budget) CounterOffer {
	revision := s.cache.Revise(ctx, p.sys, s.lp.P, env, b, others...)
	switch {
	case revision == nil:
		return CounterOffer{Result: ResultConformed}
	case revision.Indeterminate:
		return CounterOffer{Result: ResultIndeterminate, Stop: int(revision.Stop)}
	case !revision.OK:
		var core []string
		if revision.Feedback != nil {
			core = revision.Feedback.Core
		}
		return CounterOffer{Result: ResultStuck, Feedback: core}
	}
	snap := s.lp.Snapshot()
	return CounterOffer{Result: ResultRevised, Offer: &snap, Edits: EncodeEdits(revision.Edits)}
}

func (p *Peer) serveInstall(w http.ResponseWriter, r *http.Request) {
	var req InstallRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s := p.lookup(req.Session)
	if s == nil {
		writeWireError(w, http.StatusNotFound, ErrCodeUnknownSession, "unknown session (peer restarted?)")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.replay[req.Idem]; ok && req.Idem != "" {
		p.hooks.replay()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Fed-Replay", "1")
		w.Write(prev)
		return
	}
	if err := s.lp.Install(req.Offer); err != nil {
		writeWireError(w, http.StatusBadRequest, ErrCodeUsage, err.Error())
		return
	}
	resp := InstallResponse{Digest: s.lp.Digest()}
	if req.Idem != "" {
		if raw, err := json.Marshal(resp); err == nil {
			s.replay[req.Idem] = append(raw, '\n')
		}
	}
	writeJSON(w, resp)
}

func (p *Peer) serveDescribe(w http.ResponseWriter, r *http.Request) {
	var req DescribeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s := p.lookup(req.Session)
	if s == nil {
		writeWireError(w, http.StatusNotFound, ErrCodeUnknownSession, "unknown session (peer restarted?)")
		return
	}
	s.mu.Lock()
	resp := DescribeResponse{Text: s.lp.P.Describe()}
	s.mu.Unlock()
	writeJSON(w, resp)
}
