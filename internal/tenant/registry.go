package tenant

import (
	"fmt"
	"sort"
	"sync"
)

// LoadFunc builds one tenant's serving state from its inputs. The
// returned fingerprint identifies those inputs (typically a content hash
// of the source files); Reload skips the swap when it is unchanged and
// the reload was not forced, so a periodic rescan is cheap for idle
// tenants. Loading must validate: a LoadFunc returning nil error vouches
// that the state can serve.
type LoadFunc[T any] func() (state T, fingerprint string, err error)

// Entry is one immutable revision of one tenant: the compiled serving
// state plus the warm-cache pool it draws from. Requests capture the
// entry at admission and keep it to completion, so a hot reload never
// tears an in-flight answer — the old revision simply drains (its state
// is garbage once the last request lets go). Revisions whose sessions
// stay valid for each other (see SetRebase) share one pool; otherwise the
// old revision's pool is retired.
type Entry[T any] struct {
	ID string
	// Revision counts successful loads of this tenant, starting at 1.
	Revision int64
	State    T
	Pool     *CachePool
	// Fingerprint is the input fingerprint the revision was built from.
	Fingerprint string
	// PrevFingerprint is the fingerprint of the revision this one replaced
	// ("" for a first load). A delta consumer uses the pair to distinguish
	// "tenant changed" (both non-empty, different) from "tenant is new".
	PrevFingerprint string
}

// Registry maps tenant IDs to their current revision. Lookups are
// lock-cheap and never blocked by a reload in progress: loading and
// validating the new state happens outside the entry lock, and only the
// pointer swap is serialized.
type Registry[T any] struct {
	ledger *Ledger

	// reloadMu serialises mutations (Add/Reload/Remove/Rescan) so two
	// concurrent reloads of one tenant cannot interleave their
	// load-then-swap sequences. Reads take only mu.
	reloadMu sync.Mutex

	mu      sync.RWMutex
	entries map[string]*Entry[T]
	loaders map[string]LoadFunc[T]
	static  map[string]bool // Add-ed directly; never removed by Rescan
	reloads map[string]int64

	// discover re-enumerates dynamic tenants (e.g. a -tenant-dir scan);
	// see SetDiscover and Rescan.
	discover func() (map[string]LoadFunc[T], error)
	// rebase anchors a reloaded state on its predecessor; see SetRebase.
	// Like discover, it is guarded by reloadMu.
	rebase func(old, new T) (T, bool)

	// onSwap observes entry transitions; see SetOnSwap.
	onSwap func(old, new *Entry[T])
}

// NewRegistry creates an empty registry whose tenant pools share the
// given ledger's memory budget.
func NewRegistry[T any](ledger *Ledger) *Registry[T] {
	if ledger == nil {
		ledger = NewLedger(0)
	}
	return &Registry[T]{
		ledger:  ledger,
		entries: make(map[string]*Entry[T]),
		loaders: make(map[string]LoadFunc[T]),
		static:  make(map[string]bool),
		reloads: make(map[string]int64),
	}
}

// Ledger returns the shared memory-budget ledger.
func (r *Registry[T]) Ledger() *Ledger { return r.ledger }

// Add registers a static tenant (one not managed by Rescan) and loads
// its first revision. It fails if the ID is taken or the load fails —
// a tenant is never registered in an unservable state.
func (r *Registry[T]) Add(id string, load LoadFunc[T]) (*Entry[T], error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	ent, err := r.add(id, load, true)
	return ent, err
}

// add loads and installs revision 1 of a tenant; reloadMu held.
func (r *Registry[T]) add(id string, load LoadFunc[T], static bool) (*Entry[T], error) {
	if id == "" {
		return nil, fmt.Errorf("tenant: empty tenant ID")
	}
	r.mu.RLock()
	_, taken := r.entries[id]
	r.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("tenant: %q already registered", id)
	}
	state, fp, err := load()
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", id, err)
	}
	ent := &Entry[T]{ID: id, Revision: 1, State: state, Pool: r.ledger.NewPool(id), Fingerprint: fp}
	r.mu.Lock()
	r.entries[id] = ent
	r.loaders[id] = load
	r.static[id] = static
	hook := r.onSwap
	r.mu.Unlock()
	if hook != nil {
		hook(nil, ent)
	}
	return ent, nil
}

// Get returns the tenant's current revision. Callers keep the returned
// entry for the whole request: it is immutable and stays valid (and
// consistent with itself) across any number of concurrent reloads.
func (r *Registry[T]) Get(id string) (*Entry[T], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ent, ok := r.entries[id]
	return ent, ok
}

// IDs lists the registered tenant IDs, sorted.
func (r *Registry[T]) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Entries snapshots the current revision of every tenant, sorted by ID.
func (r *Registry[T]) Entries() []*Entry[T] {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry[T], 0, len(r.entries))
	for _, ent := range r.entries {
		out = append(out, ent)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of registered tenants.
func (r *Registry[T]) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Reloads reports how many times the tenant has been successfully
// reloaded (revision swaps after the first load).
func (r *Registry[T]) Reloads(id string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.reloads[id]
}

// Reload re-runs the tenant's loader and, if the inputs changed (or
// force is set), atomically swaps in the new revision: load → validate →
// compare-and-swap. When the rebase hook (SetRebase) vouches that the old
// revision's sessions stay valid for the new state, the new revision
// shares the old one's pool and starts warm; otherwise the old pool is
// retired so it drains, and a fresh pool takes over its counters. The
// swap itself is a pointer write, so concurrent lookups see either the
// whole old revision or the whole new one, never a mix. It returns the
// current entry and whether a swap happened. On load failure the old
// revision keeps serving untouched.
func (r *Registry[T]) Reload(id string, force bool) (*Entry[T], bool, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	return r.reload(id, force)
}

// reload is Reload with reloadMu already held (for Rescan).
func (r *Registry[T]) reload(id string, force bool) (*Entry[T], bool, error) {
	r.mu.RLock()
	old, ok := r.entries[id]
	load := r.loaders[id]
	r.mu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("tenant: unknown tenant %q", id)
	}
	state, fp, err := load()
	if err != nil {
		return old, false, fmt.Errorf("tenant %q: reload: %w", id, err)
	}
	if !force && fp != "" && fp == old.Fingerprint {
		return old, false, nil // inputs unchanged; keep serving the old revision
	}
	keep := false
	if r.rebase != nil {
		state, keep = r.rebase(old.State, state)
	}
	pool := old.Pool
	if !keep {
		pool = r.ledger.NewPool(id)
	}
	ent := &Entry[T]{
		ID: id, Revision: old.Revision + 1, State: state,
		Pool: pool, Fingerprint: fp,
		PrevFingerprint: old.Fingerprint,
	}
	r.mu.Lock()
	r.entries[id] = ent
	r.reloads[id]++
	hook := r.onSwap
	r.mu.Unlock()
	if !keep {
		old.Pool.RetireInto(pool)
	}
	if hook != nil {
		hook(old, ent)
	}
	return ent, true, nil
}

// Remove unregisters a tenant and retires its pool. In-flight requests
// holding the entry finish normally.
func (r *Registry[T]) Remove(id string) bool {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	return r.remove(id)
}

func (r *Registry[T]) remove(id string) bool {
	r.mu.Lock()
	ent, ok := r.entries[id]
	if ok {
		delete(r.entries, id)
		delete(r.loaders, id)
		delete(r.static, id)
		delete(r.reloads, id)
	}
	hook := r.onSwap
	r.mu.Unlock()
	if ok {
		ent.Pool.Retire()
		if hook != nil {
			hook(ent, nil)
		}
	}
	return ok
}

// SetOnSwap installs an observer for entry transitions: (nil, new) when
// a tenant is first loaded, (old, new) when a reload swaps revisions,
// and (old, nil) when a tenant is removed. The hook runs after the swap
// is visible to Get, outside the entry lock but serialized with other
// mutations, so observers see transitions in order and exactly once.
// A skipped reload (fingerprint unchanged) does not fire it.
func (r *Registry[T]) SetOnSwap(f func(old, new *Entry[T])) {
	r.mu.Lock()
	r.onSwap = f
	r.mu.Unlock()
}

// SetRebase installs the hook Reload runs before a swap. Given the
// current revision's state and the freshly loaded one, it returns the
// state to publish and whether the current revision's warm sessions stay
// valid for it. When they do, the new revision shares the current pool,
// so its first request lands warm, and caches still checked out by
// old-revision requests come back warm into the same pool. When they do
// not, the current pool is retired as without a hook. The hook runs under
// the reload lock, so it sees revisions in order.
func (r *Registry[T]) SetRebase(f func(old, new T) (T, bool)) {
	r.reloadMu.Lock()
	r.rebase = f
	r.reloadMu.Unlock()
}

// SetDiscover installs the enumerator Rescan uses to manage dynamic
// tenants (typically a tenant-directory scan).
func (r *Registry[T]) SetDiscover(f func() (map[string]LoadFunc[T], error)) {
	r.reloadMu.Lock()
	r.discover = f
	r.reloadMu.Unlock()
}

// RescanReport summarises one Rescan.
type RescanReport struct {
	Added    []string
	Reloaded []string // fingerprint changed; new revision swapped in
	Removed  []string
	// Failed maps tenant IDs to their load errors. A failed reload keeps
	// the old revision serving; a failed add is skipped.
	Failed map[string]error
}

// Rescan reconciles the registry against the discover enumerator: new
// tenants are added, vanished dynamic tenants are removed, and existing
// ones are reloaded if their inputs' fingerprints changed. Static
// tenants (Add) are reload-checked but never removed. One tenant's
// failure never blocks the others.
func (r *Registry[T]) Rescan() (RescanReport, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	rep := RescanReport{Failed: make(map[string]error)}

	found := map[string]LoadFunc[T]{}
	if r.discover != nil {
		var err error
		if found, err = r.discover(); err != nil {
			return rep, err
		}
	}

	r.mu.RLock()
	known := make(map[string]bool, len(r.entries))
	for id := range r.entries {
		known[id] = true
	}
	static := make(map[string]bool, len(r.static))
	for id, s := range r.static {
		static[id] = s
	}
	r.mu.RUnlock()

	for id, load := range found {
		if known[id] {
			continue
		}
		if _, err := r.add(id, load, false); err != nil {
			rep.Failed[id] = err
			continue
		}
		rep.Added = append(rep.Added, id)
	}
	for id := range known {
		if _, present := found[id]; !present && !static[id] {
			r.remove(id)
			rep.Removed = append(rep.Removed, id)
			delete(known, id)
		}
	}
	for id := range known {
		if _, swapped, err := r.reload(id, false); err != nil {
			rep.Failed[id] = err
		} else if swapped {
			rep.Reloaded = append(rep.Reloaded, id)
		}
	}
	sort.Strings(rep.Added)
	sort.Strings(rep.Reloaded)
	sort.Strings(rep.Removed)
	return rep, nil
}
