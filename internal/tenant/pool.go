// Package tenant turns the single-bundle mediation daemon into a
// multi-tenant one. It provides two pieces:
//
//   - a Registry mapping tenant ID → an immutable revision of serving
//     state, with atomic hot reload (load → validate → swap; the old
//     revision drains) and directory rescan;
//   - per-tenant pools of warm solving caches (CachePool) under one
//     global memory budget (Ledger) with cross-tenant LRU eviction, so a
//     cold tenant cannot hold RAM forever and a hot tenant cannot starve
//     the rest into thrash.
//
// The package is generic over the serving-state type so it stays free of
// the HTTP layer; internal/server instantiates it with *server.State.
package tenant

import (
	"sync"

	"muppet"
)

// Ledger is the global memory budget over every tenant's idle warm
// caches. All pools carved from one ledger share one byte budget; when
// the idle total exceeds it, the globally least-recently-used sessions
// are evicted regardless of which tenant owns them. Caches checked out
// to a worker are not counted — that transient working set is bounded by
// the server's admission concurrency, not by this ledger.
type Ledger struct {
	budget int64 // bytes; 0 = unlimited

	mu        sync.Mutex
	pools     []*CachePool
	total     int64 // accounted idle bytes across all pools
	clock     int64 // logical time stamping idle caches for global LRU
	evictions int64 // sessions evicted for budget pressure
}

// NewLedger creates a ledger enforcing the given byte budget over the
// idle caches of every pool carved from it. budgetBytes ≤ 0 disables
// eviction (unlimited).
func NewLedger(budgetBytes int64) *Ledger {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &Ledger{budget: budgetBytes}
}

// Budget reports the configured byte budget (0 = unlimited).
func (l *Ledger) Budget() int64 { return l.budget }

// TotalBytes reports the accounted bytes of all idle caches.
func (l *Ledger) TotalBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Evictions reports the total sessions evicted for budget pressure.
func (l *Ledger) Evictions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}

// NewPool carves a new per-tenant cache pool out of the ledger.
func (l *Ledger) NewPool(tenant string) *CachePool {
	p := &CachePool{ledger: l, tenant: tenant}
	l.mu.Lock()
	l.pools = append(l.pools, p)
	l.mu.Unlock()
	return p
}

// idleCache is one checked-in warm cache together with the accounting
// snapshot taken at checkin. The stats snapshot lets the metrics scrape
// path aggregate without touching a cache that may be checked out (and
// single-goroutine) at scrape time.
type idleCache struct {
	cache    *muppet.SolveCache
	bytes    int64
	lastUsed int64
	stats    muppet.ReuseStats
}

// CachePool is one tenant's pool of warm solving caches. Checkout hands
// a worker exclusive ownership of a cache (SolveCache is
// single-goroutine); Checkin returns it warm for the next request and
// settles the byte accounting with the shared ledger, evicting the
// globally least-recently-used sessions if the fleet is over budget.
//
// A pool belongs to one tenant System: its caches key sessions by that
// compiled system. A reload that keeps the universe keeps the System, so
// the new revision shares the pool and its first request lands warm.
// A reload that changes the universe retires the pool: its idle caches
// are dropped — they could never hit again — and caches still checked
// out by in-flight requests are discarded at checkin. That is the whole
// drain protocol: old requests finish on the state they started with,
// and the memory follows them out.
type CachePool struct {
	ledger *Ledger
	tenant string

	// All mutable state below is guarded by ledger.mu: eviction is a
	// cross-pool scan, so one lock for the whole fleet keeps it simple
	// and the critical sections are short (stats are computed outside).
	free    []*idleCache
	retired bool
	// next is the pool that replaced this one (RetireInto): a retired
	// pool counts its late checkouts and checkins there.
	next      *CachePool
	checkouts int64
	misses    int64
	evictions int64
	// retiredStats accumulates the reuse counters of caches dropped from
	// this pool (evicted or retired), keeping the pool's aggregate
	// counters monotonic while the live caches come and go.
	retiredStats muppet.ReuseStats
}

// Checkout hands the caller exclusive ownership of a warm cache (most
// recently used first, to keep the hottest sessions hot), or a fresh one
// when the pool is empty or retired. Pair with Checkin.
func (p *CachePool) Checkout() *muppet.SolveCache {
	l := p.ledger
	l.mu.Lock()
	if n := len(p.free); n > 0 && !p.retired {
		p.checkouts++
		ic := p.free[n-1]
		p.free = p.free[:n-1]
		l.total -= ic.bytes
		l.mu.Unlock()
		return ic.cache
	}
	q := p.live()
	q.checkouts++
	q.misses++
	l.mu.Unlock()
	return muppet.NewSolveCache()
}

// live is the pool that counts p's traffic: p itself, or after
// RetireInto the tenant's current pool. Called with ledger.mu held.
func (p *CachePool) live() *CachePool {
	for p.next != nil {
		p = p.next
	}
	return p
}

// Checkin returns a checked-out cache to the pool, re-measures it, and
// evicts across the fleet until the ledger is back under budget. On a
// retired pool the cache is discarded instead: its sessions belong to a
// replaced tenant revision.
func (p *CachePool) Checkin(c *muppet.SolveCache) {
	if c == nil {
		return
	}
	// Measure outside the lock: the caller still owns the cache, and
	// Stats/ApproxBytes walk every live session.
	bytes := c.ApproxBytes()
	stats := c.Stats()

	l := p.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.retired {
		p.live().retiredStats.Add(stats)
		return
	}
	l.clock++
	p.free = append(p.free, &idleCache{cache: c, bytes: bytes, lastUsed: l.clock, stats: stats})
	l.total += bytes
	l.evictLocked()
}

// evictLocked drops globally least-recently-used idle sessions until the
// ledger is under budget. It evicts one session at a time (via
// SolveCache.Evict) so a tenant with several warm shapes sheds its
// coldest shape first; a cache with no sessions left is dropped whole.
// Called with ledger.mu held.
func (l *Ledger) evictLocked() {
	for l.budget > 0 && l.total > l.budget {
		var vp *CachePool
		vi := -1
		for _, p := range l.pools {
			for i, ic := range p.free {
				if vi < 0 || ic.lastUsed < vp.free[vi].lastUsed {
					vp, vi = p, i
				}
			}
		}
		if vi < 0 {
			return // nothing idle left to evict
		}
		ic := vp.free[vi]
		n := int64(ic.cache.Evict(1))
		vp.evictions += n
		l.evictions += n
		if ic.cache.Len() == 0 {
			vp.free = append(vp.free[:vi], vp.free[vi+1:]...)
			l.total -= ic.bytes
			vp.retiredStats.Add(ic.cache.Stats())
			continue
		}
		nb := ic.cache.ApproxBytes()
		l.total += nb - ic.bytes
		ic.bytes = nb
		ic.stats = ic.cache.Stats()
	}
}

// Retire marks the pool dead and releases its idle caches. Checked-out
// caches are discarded when their requests check them back in.
func (p *CachePool) Retire() { p.RetireInto(nil) }

// RetireInto retires p in favour of next, the pool that replaces it
// after a reload that changed the tenant's System. next takes over p's
// counters, and p's later traffic (checkouts by requests still on the
// old revision, and the caches they check back in) is counted in next,
// so the tenant's statistics run on across the reload. A nil next is
// Retire.
func (p *CachePool) RetireInto(next *CachePool) {
	l := p.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.retired {
		return
	}
	p.retired = true
	for _, ic := range p.free {
		l.total -= ic.bytes
		p.retiredStats.Add(ic.stats)
	}
	p.free = nil
	for i, q := range l.pools {
		if q == p {
			l.pools = append(l.pools[:i], l.pools[i+1:]...)
			break
		}
	}
	if next != nil {
		next.checkouts += p.checkouts
		next.misses += p.misses
		next.evictions += p.evictions
		next.retiredStats.Add(p.retiredStats)
		p.checkouts, p.misses, p.evictions = 0, 0, 0
		p.retiredStats = muppet.ReuseStats{}
		p.next = next
	}
}

// PoolStats is a pool's observability snapshot.
type PoolStats struct {
	Tenant    string
	IdleCount int   // idle caches waiting for a checkout
	Bytes     int64 // accounted bytes of those idle caches
	Checkouts int64
	Misses    int64 // checkouts that had to build a fresh cache
	Evictions int64 // sessions evicted from this pool for budget pressure
	// Reuse aggregates the solver-reuse counters across the pool's
	// caches, including ones already dropped (so counters stay
	// monotonic across evictions).
	Reuse muppet.ReuseStats
}

// Stats snapshots the pool.
func (p *CachePool) Stats() PoolStats {
	l := p.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	st := PoolStats{
		Tenant:    p.tenant,
		IdleCount: len(p.free),
		Checkouts: p.checkouts,
		Misses:    p.misses,
		Evictions: p.evictions,
		Reuse:     p.retiredStats,
	}
	for _, ic := range p.free {
		st.Bytes += ic.bytes
		st.Reuse.Add(ic.stats)
	}
	return st
}
