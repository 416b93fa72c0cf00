package target

import (
	"encoding/binary"

	"muppet/internal/sat"
)

// EncoderCache memoises totalizer encodings per soft-literal set so that
// repeated Minimize calls on one long-lived solver session share a
// single cardinality encoding instead of emitting a fresh one each time.
// The cache is sound because the totalizer clauses are one-directional
// definitions over fresh variables — satisfiable under any assignment of
// their inputs — so a cached encoder never constrains a run it was not
// built for, provided every distance cap is assumption-based (retractable
// probing); Minimize enforces that condition before consulting the cache.
//
// Encoders are truncated at the distance the counter must express, like
// the uncached path: a full-width encoder would cost O(n²) clauses and —
// far worse — force every UNSAT bound proof to reason over the whole
// counter tree instead of a d-truncated one, which at sweep scale turns a
// seconds-long minimisation into minutes. A run whose first model is
// within the cached truncation (the warm path) descends on the cached
// counter directly. Otherwise Minimize first core-tightens its first
// model, so the distance requested here is the tightened one, and a
// request beyond the cached truncation rebuilds at no less than twice
// that truncation (capped at the soft-set size). The orphaned encoder's
// clauses stay behind as inert definitions; because truncations at least
// double, a session builds at most ⌈log₂ n⌉+1 encoders per soft set.
//
// Keys are the exact soft-literal sequence, so soft sets that differ in
// content, order, or polarity get separate encoders; a workflow session
// sees only a handful of distinct soft sets (one per offer
// configuration), keeping the cache small.
//
// An EncoderCache is tied to one solver session: its cached output
// variables are meaningless on any other solver. It is not safe for
// concurrent use, matching the sessions it serves.
type EncoderCache struct {
	encs  map[string]*cachedEncoder
	hits  int
	built int
	key   []byte // the current run's key; see lookup
}

type cachedEncoder struct {
	tot   *totalizer
	bound int
}

// NewEncoderCache returns an empty cache for one solver session.
func NewEncoderCache() *EncoderCache {
	return &EncoderCache{encs: make(map[string]*cachedEncoder)}
}

// Hits reports how many Minimize runs reused a cached encoding.
func (c *EncoderCache) Hits() int { return c.hits }

// Built reports how many encodings the cache has emitted (rebuilds at a
// larger truncation count separately).
func (c *EncoderCache) Built() int { return c.built }

// lookup returns the memoised encoder for soft, or nil. It leaves soft's
// key (four bytes per literal) in the cache's reused scratch for the
// get that follows: a run encodes its key once, and only a rebuild
// allocates it as a string.
func (c *EncoderCache) lookup(soft []sat.Lit) *cachedEncoder {
	c.key = c.key[:0]
	for _, l := range soft {
		c.key = binary.LittleEndian.AppendUint32(c.key, uint32(l))
	}
	return c.encs[string(c.key)]
}

// covers reports whether e, a lookup result, expresses bound outputs.
func (e *cachedEncoder) covers(bound int) bool {
	return e != nil && e.bound >= bound
}

// get returns an encoder covering bound outputs for the soft set of the
// preceding lookup, which returned e: e's own when it covers the bound,
// else a rebuild at no less than twice e's truncation (capped at the
// soft-set size) that replaces it.
func (c *EncoderCache) get(s *sat.Solver, soft []sat.Lit, e *cachedEncoder, bound int) *totalizer {
	if e.covers(bound) {
		c.hits++
		return e.tot
	}
	if e != nil && bound < 2*e.bound {
		bound = 2 * e.bound
	}
	if bound > len(soft) {
		bound = len(soft)
	}
	t := newTotalizer(s, mismatches(soft), bound)
	c.encs[string(c.key)] = &cachedEncoder{tot: t, bound: bound}
	c.built++
	return t
}
