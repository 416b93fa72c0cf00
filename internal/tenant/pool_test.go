package tenant

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"muppet"
)

func TestPoolCheckoutCheckinReuse(t *testing.T) {
	l := NewLedger(0)
	p := l.NewPool("acme")

	c1 := p.Checkout() // empty pool: fresh cache, a miss
	if c1 == nil {
		t.Fatal("nil cache from Checkout")
	}
	p.Checkin(c1)
	c2 := p.Checkout() // warm hit: the same cache comes back
	if c2 != c1 {
		t.Fatal("expected the checked-in cache back")
	}
	st := p.Stats()
	if st.Checkouts != 2 || st.Misses != 1 {
		t.Fatalf("checkouts=%d misses=%d, want 2/1", st.Checkouts, st.Misses)
	}
	// Checked-out caches are not idle and not accounted.
	if st.IdleCount != 0 || l.TotalBytes() != 0 {
		t.Fatalf("idle=%d total=%d with everything checked out", st.IdleCount, l.TotalBytes())
	}
}

func TestPoolCheckoutIsMRU(t *testing.T) {
	l := NewLedger(0)
	p := l.NewPool("acme")
	a, b := p.Checkout(), p.Checkout()
	p.Checkin(a)
	p.Checkin(b) // b is most recently used
	if got := p.Checkout(); got != b {
		t.Fatal("Checkout must prefer the most recently used cache")
	}
}

func TestPoolRetire(t *testing.T) {
	l := NewLedger(0)
	p := l.NewPool("acme")
	inflight := p.Checkout()
	p.Checkin(p.Checkout()) // one idle cache
	p.Retire()
	if st := p.Stats(); st.IdleCount != 0 {
		t.Fatalf("idle after retire = %d", st.IdleCount)
	}
	// The in-flight cache is discarded at checkin, and a retired pool
	// only ever hands out fresh caches.
	p.Checkin(inflight)
	if st := p.Stats(); st.IdleCount != 0 {
		t.Fatalf("retired pool pooled a checkin: idle = %d", st.IdleCount)
	}
	if c := p.Checkout(); c == inflight {
		t.Fatal("retired pool must not reuse discarded caches")
	}
	p.Retire() // idempotent
}

// warmCache builds a cache holding one live solving session, so it has
// real, nonzero ApproxBytes for the ledger to account.
func warmCache(t testing.TB, sys *muppet.System, k8s, istio *muppet.Party) *muppet.SolveCache {
	t.Helper()
	c := muppet.NewSolveCache()
	res := c.LocalConsistencyCtx(context.Background(), sys, k8s, []*muppet.Party{istio}, muppet.Budget{})
	if !res.OK {
		t.Fatal("scenario must be consistent")
	}
	if c.ApproxBytes() <= 0 {
		t.Fatal("warm cache reports zero bytes")
	}
	return c
}

func scenarioParties(t testing.TB) (*muppet.System, *muppet.Party, *muppet.Party) {
	t.Helper()
	sc := muppet.GenerateScenario(muppet.ScenarioParams{
		Services: 3, PortsPerService: 2, Flows: 3, BannedPorts: 1, Seed: 7,
	})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	k8s, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), nil)
	if err != nil {
		t.Fatal(err)
	}
	istio, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), sc.IstioRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	return sys, k8s, istio
}

// TestLedgerEvictsLRUUnderBudget checks the satellite requirement: under
// a tiny budget, idle warm caches are evicted least-recently-used first
// and the accounted total never settles above the budget.
func TestLedgerEvictsLRUUnderBudget(t *testing.T) {
	sys, k8s, istio := scenarioParties(t)

	// Size one warm cache, then allow room for roughly two of them.
	probe := warmCache(t, sys, k8s, istio)
	one := probe.ApproxBytes()
	budget := one * 2

	l := NewLedger(budget)
	a := l.NewPool("acme")
	b := l.NewPool("bravo")

	// Three warm caches across two tenants under a two-cache budget: the
	// first (globally oldest) one must be evicted, whichever pool owns it.
	a.Checkin(warmCache(t, sys, k8s, istio))
	a.Checkin(warmCache(t, sys, k8s, istio))
	b.Checkin(warmCache(t, sys, k8s, istio))

	if tot := l.TotalBytes(); tot > budget {
		t.Fatalf("idle total %d over budget %d", tot, budget)
	}
	if l.Evictions() == 0 {
		t.Fatal("expected at least one eviction")
	}
	// The oldest idle cache was tenant a's first checkin: the eviction
	// must land on pool a even though pool b checked in last.
	if st := a.Stats(); st.Evictions == 0 {
		t.Fatalf("evictions must hit the LRU pool: a=%+v b=%+v", a.Stats(), b.Stats())
	}
	if st := b.Stats(); st.Evictions != 0 {
		t.Fatalf("MRU pool evicted: %+v", st)
	}

	// Counters stay monotonic across evictions: sessions built are still
	// visible in the pool aggregate even though the cache is gone.
	if st := a.Stats(); st.Reuse.Sessions == 0 {
		t.Fatalf("evicted sessions vanished from aggregate stats: %+v", st)
	}
}

func TestLedgerUnlimitedNeverEvicts(t *testing.T) {
	sys, k8s, istio := scenarioParties(t)
	l := NewLedger(0)
	p := l.NewPool("acme")
	for i := 0; i < 3; i++ {
		p.Checkin(warmCache(t, sys, k8s, istio))
	}
	if l.Evictions() != 0 {
		t.Fatalf("unlimited ledger evicted %d sessions", l.Evictions())
	}
	if st := p.Stats(); st.IdleCount != 3 {
		t.Fatalf("idle = %d, want 3", st.IdleCount)
	}
}

// TestLedgerFleetUnderHalfBudget serves an 8-tenant fleet (services 3–5,
// seeds 101–108) round-robin from pools on one ledger whose budget holds
// about half the fleet's warm sessions. After each pass it pins the
// sessions built, the reuses, the evictions and the idle bytes exactly,
// and it bounds allocations and bytes per query within 25% either side
// of the values recorded when the test was written. The "no-goals" fleet
// asks a K8s subject with no goals and an all-soft offer, whose sessions
// hold no problem clauses; the "goals" fleet adds the scenario's K8s
// goals, so every cache it checks in must hold solver clauses.
func TestLedgerFleetUnderHalfBudget(t *testing.T) {
	type member struct {
		sys        *muppet.System
		k8s, istio *muppet.Party
		pool       *CachePool
	}
	// counts are the fleet's cumulative counters after one pass.
	type counts struct{ sessions, reuses, evictions, idleBytes int64 }
	for _, c := range []struct {
		name          string
		goals         bool
		passes        []counts
		allocs, bytes float64 // per query
	}{
		{"no-goals", false, []counts{{8, 0, 6, 31656}, {16, 0, 14, 31656}, {24, 0, 22, 31656}, {32, 0, 30, 31656}}, 2745, 385779},
		{"goals", true, []counts{{8, 0, 6, 457000}, {16, 0, 14, 457000}, {24, 0, 22, 457000}, {32, 0, 30, 457000}}, 6804, 1844433},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			members := make([]*member, 8)
			for i := range members {
				sc := muppet.GenerateScenario(muppet.ScenarioParams{
					Services: 3 + i%3, PortsPerService: 2, Flows: 3, BannedPorts: 1, Seed: int64(101 + i),
				})
				sys, err := sc.System()
				if err != nil {
					t.Fatal(err)
				}
				var kg []muppet.K8sGoal
				if c.goals {
					kg = sc.K8sGoals
				}
				k8s, _, err := muppet.NewK8sParty(sys, sc.K8sCurrent, muppet.AllSoft(), kg)
				if err != nil {
					t.Fatal(err)
				}
				istio, _, err := muppet.NewIstioParty(sys, sc.IstioCurrent, muppet.AllSoft(), sc.IstioRelaxed)
				if err != nil {
					t.Fatal(err)
				}
				members[i] = &member{sys: sys, k8s: k8s, istio: istio}
			}
			m0 := members[0]
			l := NewLedger(warmCache(t, m0.sys, m0.k8s, m0.istio).ApproxBytes() * int64(len(members)) / 2)
			for i, m := range members {
				m.pool = l.NewPool(fmt.Sprintf("tenant-%02d", i))
			}
			empty := 0 // checked-in caches holding no solver clauses
			pass := func() {
				for _, m := range members {
					cache := m.pool.Checkout()
					res := cache.LocalConsistencyCtx(ctx, m.sys, m.k8s, []*muppet.Party{m.istio}, muppet.Budget{})
					if !res.OK {
						t.Fatal("fleet scenario must be consistent")
					}
					if cache.Stats().Encoding.SolverClauses == 0 {
						empty++
					}
					m.pool.Checkin(cache)
				}
			}
			for i, want := range c.passes {
				pass()
				got := counts{evictions: l.Evictions(), idleBytes: l.TotalBytes()}
				for _, m := range members {
					st := m.pool.Stats()
					got.sessions += st.Reuse.Sessions
					got.reuses += st.Reuse.Reuses
				}
				if got != want {
					t.Errorf("after pass %d: %+v, want %+v", i+1, got, want)
				}
			}
			if c.goals && empty != 0 {
				t.Errorf("%d of %d warm caches hold no solver clauses", empty, len(c.passes)*len(members))
			}
			n := float64(len(members))
			allocs := testing.AllocsPerRun(5, pass) / n
			bytes := bytesPerRun(5, pass) / n
			t.Logf("%.0f allocs, %.0f bytes per query", allocs, bytes)
			checkWithin25(t, "allocs per query", allocs, c.allocs)
			checkWithin25(t, "bytes per query", bytes, c.bytes)
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes one
// call of f allocates, measured at GOMAXPROCS=1 after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// checkWithin25 fails t unless got is within 25% of want either way.
func checkWithin25(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got < 0.75*want || got > 1.25*want {
		t.Errorf("%s = %.0f, want %.0f ± 25%%", what, got, want)
	}
}
