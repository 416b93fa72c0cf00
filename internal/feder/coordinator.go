package feder

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"muppet"
)

// PeerRef names one peer mediator: the party it negotiates for and the
// base URL its /fed/ endpoints live under.
type PeerRef struct {
	Name string
	URL  string
}

// Options tune the coordinator's robustness machinery. The zero value
// gives sensible defaults (2 retries, 50 ms base backoff, breaker after
// 3 consecutive failures with a 1 s cooldown). Deadlines come from the
// context and budget passed to Run.
type Options struct {
	Rounds           int           // max revision rounds (0 = 2 cycles)
	Retries          int           // per-call retries (-1 = none, 0 = default 2)
	BackoffBase      time.Duration // first retry delay (0 = 50 ms)
	BackoffMax       time.Duration // backoff cap (0 = 2 s)
	BreakerThreshold int           // consecutive failures to open (0 = 3)
	BreakerCooldown  time.Duration // open → half-open delay (0 = 1 s)
	Seed             int64         // jitter seed (reproducible tests)
	Transcript       *TranscriptWriter
	OnRetry          func(peer string)                  // metrics hook
	OnRound          func()                             // metrics hook: one round driven
	OnBreaker        func(peer string, st BreakerState) // metrics hook: breaker position after the run
}

// Coordinator is the paper's trusted mediator running the Fig. 9 loop
// over remote parties. It holds local replicas of every party (goals and
// all — the mediator is trusted; party-to-party privacy is what the
// protocol preserves) and runs muppet.Negotiation over them: joint
// reconciles and merged envelopes are computed locally, while each
// acting party's revision turn runs remotely on its own daemon.
type Coordinator struct {
	sys      *muppet.System
	vocab    *Vocab
	fpr      string
	replicas []*LocalParty
	clients  []*PeerClient
	cache    *muppet.SolveCache
	opts     Options
	session  string
}

// NewCoordinator pairs each replica with its peer by party name (case-
// insensitive). Replica order fixes the round-robin cycle, exactly as
// party order does for NewNegotiation.
func NewCoordinator(sys *muppet.System, replicas []*LocalParty, peers []PeerRef, opts Options) (*Coordinator, error) {
	if len(replicas) < 2 {
		return nil, fmt.Errorf("feder: negotiation needs at least two parties, got %d", len(replicas))
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown == 0 {
		opts.BreakerCooldown = time.Second
	}

	byName := make(map[string]PeerRef, len(peers))
	for _, p := range peers {
		byName[strings.ToLower(p.Name)] = p
	}
	var id [8]byte
	rand.Read(id[:])
	c := &Coordinator{
		sys:      sys,
		vocab:    NewVocab(sys),
		fpr:      SystemFingerprint(sys),
		replicas: replicas,
		cache:    muppet.NewSolveCache(),
		opts:     opts,
		session:  "fed-" + hex.EncodeToString(id[:]),
	}
	for i, lp := range replicas {
		ref, ok := byName[strings.ToLower(lp.P.Name)]
		if !ok {
			return nil, fmt.Errorf("feder: no peer given for party %q", lp.P.Name)
		}
		delete(byName, strings.ToLower(lp.P.Name))
		cl := NewPeerClient(lp.P.Name, strings.TrimSuffix(ref.URL, "/"), opts.Retries,
			NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown), opts.Seed+int64(i))
		if opts.BackoffBase > 0 {
			cl.BackoffBase = opts.BackoffBase
		}
		if opts.BackoffMax > 0 {
			cl.BackoffMax = opts.BackoffMax
		}
		cl.OnRetry = opts.OnRetry
		c.clients = append(c.clients, cl)
	}
	for _, stray := range byName {
		return nil, fmt.Errorf("feder: peer %q matches no negotiating party", stray.Name)
	}
	return c, nil
}

// UseCache replaces the coordinator's solve cache (warm serving).
func (c *Coordinator) UseCache(cache *muppet.SolveCache) *Coordinator {
	c.cache = cache
	return c
}

// Session exposes the run's session id (tests).
func (c *Coordinator) Session() string { return c.session }

func (c *Coordinator) parties() []*muppet.Party {
	ps := make([]*muppet.Party, len(c.replicas))
	for i, lp := range c.replicas {
		ps[i] = lp.P
	}
	return ps
}

func (c *Coordinator) otherOffers(i int) []WireOffer {
	out := make([]WireOffer, 0, len(c.replicas)-1)
	for j, lp := range c.replicas {
		if j != i {
			out = append(out, lp.Snapshot())
		}
	}
	return out
}

func (c *Coordinator) transcribe(kind, peer string, round int, payload any) {
	if c.opts.Transcript != nil {
		// Transcript failures must not tear a live negotiation; the
		// verify step will catch the truncated chain.
		_ = c.opts.Transcript.Append(kind, peer, round, payload)
	}
}

// serializeBudget turns the coordinator's remaining budget into wire
// fields so a federated round degrades exactly like a local one.
func serializeBudget(b muppet.Budget) (millis, conflicts, propagations int64) {
	if !b.Deadline.IsZero() {
		millis = int64(time.Until(b.Deadline) / time.Millisecond)
		if millis <= 0 {
			millis = 1 // already past due: force an immediate budget stop
		}
	}
	return millis, b.MaxConflicts, b.MaxPropagations
}

// join opens (or reopens) the session on peer i, verifying the shared
// vocabulary and the peer's party identity, and resynchronizing the
// peer's configuration from the authoritative replica when it drifted
// (fresh peer, peer restart).
func (c *Coordinator) join(ctx context.Context, i, round int) error {
	lp, cl := c.replicas[i], c.clients[i]
	var jr JoinResponse
	err := cl.Call(ctx, "join", JoinRequest{
		Session:     c.session,
		Coordinator: "muppet",
		Fingerprint: c.fpr,
		Rounds:      c.maxRounds(),
	}, &jr)
	if err != nil {
		return err
	}
	if !strings.EqualFold(jr.Party, lp.P.Name) {
		return &PeerError{Peer: cl.Name, Op: "join", Code: ErrCodeUsage,
			Err: fmt.Errorf("peer negotiates for %q, expected %q", jr.Party, lp.P.Name)}
	}
	if jr.Fingerprint != c.fpr {
		return &PeerError{Peer: cl.Name, Op: "join", Code: ErrCodeFingerprint,
			Err: errors.New("system fingerprint mismatch")}
	}
	if jr.Kind != lp.Kind() || jr.Mode != lp.Mode() {
		return &PeerError{Peer: cl.Name, Op: "join", Code: ErrCodeUsage,
			Err: fmt.Errorf("peer party is %s/%s, expected %s/%s", jr.Kind, jr.Mode, lp.Kind(), lp.Mode())}
	}
	c.transcribe("join", lp.P.Name, round, jr)
	if jr.Digest != lp.Digest() {
		return c.resync(ctx, i, round)
	}
	return nil
}

// resync installs the authoritative replica configuration on peer i.
func (c *Coordinator) resync(ctx context.Context, i, round int) error {
	lp, cl := c.replicas[i], c.clients[i]
	snap := lp.Snapshot()
	var ir InstallResponse
	err := cl.Call(ctx, "install", InstallRequest{
		Session: c.session,
		Idem:    fmt.Sprintf("%s/resync/%d/%d", c.session, round, i),
		Offer:   snap,
	}, &ir)
	if err != nil {
		return err
	}
	if ir.Digest != snap.Digest() {
		return &PeerError{Peer: cl.Name, Op: "install", Code: ErrCodeInternal,
			Err: errors.New("peer installed a different configuration (torn install)")}
	}
	c.transcribe("install", lp.P.Name, round, ir)
	return nil
}

// isUnknownSession matches the typed error a restarted peer returns.
func isUnknownSession(err error) bool {
	var pe *PeerError
	return errors.As(err, &pe) && pe.Code == ErrCodeUnknownSession
}

// sync brings peer i to the replica's state for round, healing peer
// restarts: an unknown session is rejoined, a drifted digest reinstalled.
func (c *Coordinator) sync(ctx context.Context, i, round int) error {
	lp, cl := c.replicas[i], c.clients[i]
	var pr ProposeResponse
	err := cl.Call(ctx, "propose", ProposeRequest{Session: c.session, Round: round}, &pr)
	if isUnknownSession(err) {
		return c.join(ctx, i, round)
	}
	if err != nil {
		return err
	}
	c.transcribe("propose", lp.P.Name, round, pr)
	if pr.Digest != lp.Digest() {
		return c.resync(ctx, i, round)
	}
	return nil
}

// turn is party i's revision turn (muppet.Turn), served by its peer: a
// digest sync heals a restarted or drifted peer before solver time is
// spent, the envelope round asks for the counter-offer, and a revised
// configuration is installed into the replica. A peer that restarted
// mid-round (unknown session) is rejoined, resynchronized, and asked once
// more.
func (c *Coordinator) turn(ctx context.Context, round, i int, env *muppet.Envelope, b muppet.Budget) (*muppet.Result, error) {
	if c.opts.OnRound != nil {
		c.opts.OnRound()
	}
	if err := c.sync(ctx, i, round); err != nil {
		return nil, err
	}
	lp, cl := c.replicas[i], c.clients[i]
	wenv, err := c.vocab.EncodeEnvelope(env)
	if err != nil {
		return nil, err
	}
	millis, conflicts, props := serializeBudget(b)
	req := EnvelopeRequest{
		Session:         c.session,
		Round:           round,
		Idem:            fmt.Sprintf("%s/env/%d", c.session, round),
		Env:             wenv,
		Others:          c.otherOffers(i),
		BudgetMillis:    millis,
		MaxConflicts:    conflicts,
		MaxPropagations: props,
	}
	c.transcribe("envelope", lp.P.Name, round, wenv)
	var co CounterOffer
	err = cl.Call(ctx, "envelope", req, &co)
	if isUnknownSession(err) {
		if err = c.join(ctx, i, round); err == nil {
			err = cl.Call(ctx, "envelope", req, &co)
		}
	}
	if err != nil {
		return nil, err
	}
	c.transcribe("counter", lp.P.Name, round, co)

	malformed := func(err error) (*muppet.Result, error) {
		return nil, &PeerError{Peer: lp.P.Name, Op: "envelope", Code: ErrCodeInternal, Err: err}
	}
	switch co.Result {
	case ResultConformed:
		return nil, nil
	case ResultIndeterminate:
		return &muppet.Result{Indeterminate: true, Stop: muppet.StopReason(co.Stop)}, nil
	case ResultStuck:
		stuck := &muppet.Result{}
		if len(co.Feedback) > 0 {
			stuck.Feedback = &muppet.Feedback{Core: co.Feedback}
		}
		return stuck, nil
	case ResultRevised:
		if co.Offer == nil {
			return malformed(errors.New("revised counter-offer without a configuration"))
		}
		if err := lp.Install(*co.Offer); err != nil {
			return malformed(err)
		}
		return &muppet.Result{OK: true, Edits: DecodeEdits(co.Edits)}, nil
	}
	return malformed(fmt.Errorf("unknown counter-offer result %q", co.Result))
}

func (c *Coordinator) maxRounds() int {
	if c.opts.Rounds > 0 {
		return c.opts.Rounds
	}
	return 2 * len(c.replicas)
}

// install delivers the reconciled agreement to peer i and checks the
// echoed digest: a mismatch means a torn install, reported rather than
// silently accepted.
func (c *Coordinator) install(ctx context.Context, i, round int) error {
	snap := c.replicas[i].Snapshot()
	var ir InstallResponse
	err := c.clients[i].Call(ctx, "install", InstallRequest{
		Session: c.session,
		Idem:    fmt.Sprintf("%s/final/%d/%d", c.session, round, i),
		Offer:   snap,
		Final:   true,
	}, &ir)
	if isUnknownSession(err) {
		// join resyncs from the replica, which already holds the final
		// agreement; nothing further to install.
		return c.join(ctx, i, round)
	}
	if err != nil {
		return err
	}
	if ir.Digest != "" && ir.Digest != snap.Digest() {
		return &PeerError{Peer: c.clients[i].Name, Op: "install", Code: ErrCodeInternal,
			Err: errors.New("torn final install")}
	}
	return nil
}

// Run joins every peer, runs muppet.Negotiation over the replicas with
// each party's revision turn served by its peer, and delivers a
// reconciled agreement to every peer. The loop is the single-process one,
// so the outcome and the replicas' final configurations are those of an
// in-process negotiation on the same bundle split. A failed join, turn or
// delivery ends the run as ReasonUnreachable naming the party; the rounds
// so far and the replicas' configurations are the best-so-far partial
// agreement, reported, never torn down.
func (c *Coordinator) Run(ctx context.Context, b muppet.Budget) *muppet.NegotiationOutcome {
	defer c.publishBreakers()
	o := c.run(ctx, b)
	payload := map[string]any{"reason": o.Reason.String()}
	if o.InitialReconcile {
		payload["initial"] = true
	}
	switch o.Reason {
	case muppet.ReasonIndeterminate:
		payload["stop"] = fmt.Sprint(o.Stop)
	case muppet.ReasonUnreachable:
		payload["error"] = o.Err.Error()
	}
	c.transcribe("outcome", o.FailedParty, len(o.Rounds), payload)
	return o
}

func (c *Coordinator) run(ctx context.Context, b muppet.Budget) *muppet.NegotiationOutcome {
	// Session setup: every peer joins, proves vocabulary equality, and
	// is resynchronized if its configuration drifted from the replica.
	for i, lp := range c.replicas {
		if err := c.join(ctx, i, 0); err != nil {
			return (&muppet.NegotiationOutcome{}).Unreachable(lp.P.Name, err)
		}
	}
	n := muppet.NewNegotiation(c.sys, c.parties()...).UseCache(c.cache)
	n.MaxRounds = c.maxRounds()
	n.Turn = c.turn
	o := n.RunCtx(ctx, b)
	if o.Reconciled {
		for i, lp := range c.replicas {
			if err := c.install(ctx, i, len(o.Rounds)); err != nil {
				// The replicas hold the agreement; only its delivery
				// failed, so the operator retries delivery.
				return o.Unreachable(lp.P.Name, err)
			}
		}
	}
	return o
}

// publishBreakers reports each peer's final breaker position.
func (c *Coordinator) publishBreakers() {
	if c.opts.OnBreaker == nil {
		return
	}
	for _, cl := range c.clients {
		c.opts.OnBreaker(cl.Name, cl.Breaker.State())
	}
}
