package tenant

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// loader builds a LoadFunc over mutable fake state, so tests control
// both the served value and the fingerprint.
type loader struct {
	mu    sync.Mutex
	state string
	fp    string
	fail  error
	calls int
}

func (ld *loader) set(state, fp string) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.state, ld.fp = state, fp
}

func (ld *loader) fn() LoadFunc[string] {
	return func() (string, string, error) {
		ld.mu.Lock()
		defer ld.mu.Unlock()
		ld.calls++
		if ld.fail != nil {
			return "", "", ld.fail
		}
		return ld.state, ld.fp, nil
	}
}

func TestRegistryAddGetReload(t *testing.T) {
	r := NewRegistry[string](nil)
	ld := &loader{state: "v1", fp: "fp1"}
	ent, err := r.Add("acme", ld.fn())
	if err != nil {
		t.Fatal(err)
	}
	if ent.Revision != 1 || ent.State != "v1" || ent.Fingerprint != "fp1" {
		t.Fatalf("bad first revision: %+v", ent)
	}
	if _, err := r.Add("acme", ld.fn()); err == nil {
		t.Fatal("duplicate Add must fail")
	}

	// Unchanged fingerprint: reload is a no-op, same entry keeps serving.
	got, swapped, err := r.Reload("acme", false)
	if err != nil || swapped {
		t.Fatalf("unchanged reload: swapped=%v err=%v", swapped, err)
	}
	if got != ent {
		t.Fatal("unchanged reload must return the same entry")
	}

	// Forced reload swaps even with the same fingerprint.
	got, swapped, err = r.Reload("acme", true)
	if err != nil || !swapped {
		t.Fatalf("forced reload: swapped=%v err=%v", swapped, err)
	}
	if got.Revision != 2 {
		t.Fatalf("revision = %d, want 2", got.Revision)
	}

	// Changed inputs swap and bump the revision; the old entry is intact
	// for whoever still holds it.
	ld.set("v2", "fp2")
	got2, swapped, err := r.Reload("acme", false)
	if err != nil || !swapped {
		t.Fatalf("changed reload: swapped=%v err=%v", swapped, err)
	}
	if got2.Revision != 3 || got2.State != "v2" {
		t.Fatalf("bad new revision: %+v", got2)
	}
	if got.State != "v1" {
		t.Fatal("old entry must stay immutable")
	}
	if n := r.Reloads("acme"); n != 2 {
		t.Fatalf("Reloads = %d, want 2", n)
	}

	// A failing loader keeps the old revision serving.
	ld.fail = fmt.Errorf("boom")
	cur, swapped, err := r.Reload("acme", true)
	if err == nil || swapped {
		t.Fatalf("failing reload: swapped=%v err=%v", swapped, err)
	}
	if cur != got2 {
		t.Fatal("failing reload must leave the current entry in place")
	}
	if e, ok := r.Get("acme"); !ok || e != got2 {
		t.Fatal("Get must still serve the last good revision")
	}
}

func TestRegistryReloadRetiresOldPool(t *testing.T) {
	r := NewRegistry[string](nil)
	ld := &loader{state: "v1", fp: "a"}
	ent, err := r.Add("acme", ld.fn())
	if err != nil {
		t.Fatal(err)
	}
	// Park an idle cache in the old revision's pool.
	ent.Pool.Checkin(ent.Pool.Checkout())
	if got := ent.Pool.Stats().IdleCount; got != 1 {
		t.Fatalf("idle = %d, want 1", got)
	}
	ld.set("v2", "b")
	if _, swapped, err := r.Reload("acme", false); err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	if got := ent.Pool.Stats().IdleCount; got != 0 {
		t.Fatalf("retired pool idle = %d, want 0", got)
	}
	// An in-flight request's cache is discarded at checkin, not re-pooled.
	c := ent.Pool.Checkout()
	ent.Pool.Checkin(c)
	if got := ent.Pool.Stats().IdleCount; got != 0 {
		t.Fatalf("checkin after retire pooled a cache: idle = %d", got)
	}
}

// TestRegistryRebaseKeepsPool: with a rebase hook, a reload whose state
// the hook vouches for shares the old revision's pool, so a cache checked
// out by an old-revision request comes back warm for the new one; a
// reload it rejects retires the pool into a fresh one that carries the
// counters.
func TestRegistryRebaseKeepsPool(t *testing.T) {
	r := NewRegistry[string](nil)
	// States are "universe/content"; the hook keeps the sessions while the
	// universe is unchanged and publishes the new content either way.
	r.SetRebase(func(old, new string) (string, bool) {
		ou, _, _ := strings.Cut(old, "/")
		nu, _, _ := strings.Cut(new, "/")
		return new, ou == nu
	})
	ld := &loader{state: "u1/a", fp: "1"}
	first, err := r.Add("acme", ld.fn())
	if err != nil {
		t.Fatal(err)
	}
	inflight := first.Pool.Checkout()

	ld.set("u1/b", "2")
	second, swapped, err := r.Reload("acme", false)
	if err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	if second.State != "u1/b" || second.Pool != first.Pool {
		t.Fatalf("same-universe reload: state %q, shares pool %v", second.State, second.Pool == first.Pool)
	}
	first.Pool.Checkin(inflight)
	if got := second.Pool.Checkout(); got != inflight {
		t.Fatal("a cache checked in by an old-revision request must serve the new revision")
	}

	// Forcing an unchanged reload still swaps, and still keeps the pool.
	third, swapped, err := r.Reload("acme", true)
	if err != nil || !swapped || third.Pool != first.Pool {
		t.Fatalf("forced reload: swapped=%v err=%v shares pool %v", swapped, err, third.Pool == first.Pool)
	}

	ld.set("u2/b", "3")
	fourth, swapped, err := r.Reload("acme", false)
	if err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	if fourth.Pool == first.Pool {
		t.Fatal("a reload the hook rejects must not share the pool")
	}
	if st := fourth.Pool.Stats(); st.Checkouts != 2 || st.Misses != 1 {
		t.Fatalf("new pool counters = %+v, want the old pool's 2 checkouts and 1 miss", st)
	}
	first.Pool.Checkin(first.Pool.Checkout())
	if st := first.Pool.Stats(); st.IdleCount != 0 {
		t.Fatalf("retired pool pooled a checkin: idle = %d", st.IdleCount)
	}
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry[string](nil)
	ld := &loader{state: "v", fp: "f"}
	if _, err := r.Add("acme", ld.fn()); err != nil {
		t.Fatal(err)
	}
	if !r.Remove("acme") {
		t.Fatal("Remove must report true for a registered tenant")
	}
	if _, ok := r.Get("acme"); ok {
		t.Fatal("removed tenant still resolvable")
	}
	if r.Remove("acme") {
		t.Fatal("second Remove must report false")
	}
}

func TestRegistryRescan(t *testing.T) {
	r := NewRegistry[string](nil)
	st := &loader{state: "static", fp: "s1"}
	if _, err := r.Add("pinned", st.fn()); err != nil {
		t.Fatal(err)
	}

	dyn := map[string]*loader{
		"a": {state: "a1", fp: "fa1"},
		"b": {state: "b1", fp: "fb1"},
	}
	var dynMu sync.Mutex
	r.SetDiscover(func() (map[string]LoadFunc[string], error) {
		dynMu.Lock()
		defer dynMu.Unlock()
		out := make(map[string]LoadFunc[string], len(dyn))
		for id, ld := range dyn {
			out[id] = ld.fn()
		}
		return out, nil
	})

	rep, err := r.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Added) != 2 || rep.Added[0] != "a" || rep.Added[1] != "b" {
		t.Fatalf("Added = %v", rep.Added)
	}
	if ids := r.IDs(); len(ids) != 3 {
		t.Fatalf("IDs = %v", ids)
	}

	// Change one tenant's inputs, drop the other; the static tenant is
	// reload-checked (unchanged → untouched) but never removed.
	dynMu.Lock()
	dyn["a"].state, dyn["a"].fp = "a2", "fa2"
	delete(dyn, "b")
	dynMu.Unlock()
	rep, err = r.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reloaded) != 1 || rep.Reloaded[0] != "a" {
		t.Fatalf("Reloaded = %v", rep.Reloaded)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "b" {
		t.Fatalf("Removed = %v", rep.Removed)
	}
	if ent, _ := r.Get("a"); ent.State != "a2" || ent.Revision != 2 {
		t.Fatalf("a = %+v", ent)
	}
	if _, ok := r.Get("pinned"); !ok {
		t.Fatal("static tenant removed by rescan")
	}

	// A failing dynamic tenant is reported but does not block the rest.
	dynMu.Lock()
	dyn["a"].fail = fmt.Errorf("bad yaml")
	dyn["a"].fp = "fa3"
	dynMu.Unlock()
	rep, err = r.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed["a"] == nil {
		t.Fatalf("Failed = %v", rep.Failed)
	}
	if ent, _ := r.Get("a"); ent.State != "a2" {
		t.Fatal("failed rescan reload must keep the old revision")
	}
}

// TestRegistryConcurrentReload hammers Get from many goroutines while
// revisions swap underneath; the race detector checks the swap is clean
// and the asserts check no reader ever observes a torn entry (state and
// fingerprint from different revisions).
func TestRegistryConcurrentReload(t *testing.T) {
	r := NewRegistry[string](nil)
	ld := &loader{state: "s0", fp: "f0"}
	if _, err := r.Add("acme", ld.fn()); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ent, ok := r.Get("acme")
				if !ok {
					t.Error("tenant vanished mid-reload")
					return
				}
				// Entries are immutable: state/fingerprint must be the
				// matched pair the revision was created with.
				if ent.State[1:] != ent.Fingerprint[1:] {
					t.Errorf("torn entry: %+v", ent)
					return
				}
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		ld.set(fmt.Sprintf("s%d", i), fmt.Sprintf("f%d", i))
		if _, swapped, err := r.Reload("acme", false); err != nil || !swapped {
			t.Fatalf("reload %d: swapped=%v err=%v", i, swapped, err)
		}
	}
	close(stop)
	wg.Wait()
	if ent, _ := r.Get("acme"); ent.Revision != 201 {
		t.Fatalf("final revision = %d, want 201", ent.Revision)
	}
}

func TestRegistryOnSwapAndPrevFingerprint(t *testing.T) {
	r := NewRegistry[string](nil)
	type swap struct{ oldID, newID string }
	var swaps []swap
	r.SetOnSwap(func(old, new *Entry[string]) {
		s := swap{}
		if old != nil {
			s.oldID = fmt.Sprintf("%s@%d", old.ID, old.Revision)
		}
		if new != nil {
			s.newID = fmt.Sprintf("%s@%d", new.ID, new.Revision)
		}
		swaps = append(swaps, s)
	})

	ld := &loader{state: "v1", fp: "fp1"}
	if _, err := r.Add("acme", ld.fn()); err != nil {
		t.Fatal(err)
	}

	// A skipped reload (same fingerprint, unforced) must not fire the hook.
	if _, swapped, err := r.Reload("acme", false); err != nil || swapped {
		t.Fatalf("unchanged reload: swapped=%v err=%v", swapped, err)
	}

	ld.set("v2", "fp2")
	ent, swapped, err := r.Reload("acme", false)
	if err != nil || !swapped {
		t.Fatalf("changed reload: swapped=%v err=%v", swapped, err)
	}
	if ent.PrevFingerprint != "fp1" || ent.Fingerprint != "fp2" {
		t.Fatalf("fingerprints = (%q -> %q), want (fp1 -> fp2)", ent.PrevFingerprint, ent.Fingerprint)
	}
	r.Remove("acme")

	want := []swap{
		{"", "acme@1"},       // first load: new tenant, no predecessor
		{"acme@1", "acme@2"}, // revision swap
		{"acme@2", ""},       // removal
	}
	if len(swaps) != len(want) {
		t.Fatalf("swaps = %v, want %v", swaps, want)
	}
	for i := range want {
		if swaps[i] != want[i] {
			t.Fatalf("swap[%d] = %v, want %v", i, swaps[i], want[i])
		}
	}
}
