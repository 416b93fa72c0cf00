package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// TenantInfo is one tenant's row in the GET /tenants reply.
type TenantInfo struct {
	ID          string   `json:"id"`
	Revision    int64    `json:"revision"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	Reloads     int64    `json:"reloads"`
	Pool        PoolInfo `json:"pool"`
}

// PoolInfo is a tenant cache pool's row in the GET /tenants reply.
type PoolInfo struct {
	IdleCaches int   `json:"idle_caches"`
	Bytes      int64 `json:"bytes"`
	Checkouts  int64 `json:"checkouts"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Sessions   int64 `json:"sessions"`
	Reuses     int64 `json:"reuses"`
}

// TenantsReply is the GET /tenants body: the fleet view an operator (or
// the smoke test) reads to see who is loaded at which revision and where
// the cache budget is going.
type TenantsReply struct {
	CacheBudgetBytes int64        `json:"cache_budget_bytes"`
	CacheIdleBytes   int64        `json:"cache_idle_bytes"`
	CacheEvictions   int64        `json:"cache_evictions"`
	Tenants          []TenantInfo `json:"tenants"`
}

// ReloadReply is the POST /tenants/{id}/reload body.
type ReloadReply struct {
	ID       string `json:"id"`
	Revision int64  `json:"revision"`
	Swapped  bool   `json:"swapped"`
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	ledger := s.registry.Ledger()
	reply := TenantsReply{
		CacheBudgetBytes: ledger.Budget(),
		CacheIdleBytes:   ledger.TotalBytes(),
		CacheEvictions:   ledger.Evictions(),
		Tenants:          []TenantInfo{},
	}
	for _, ent := range s.registry.Entries() {
		ps := ent.Pool.Stats()
		reply.Tenants = append(reply.Tenants, TenantInfo{
			ID:          ent.ID,
			Revision:    ent.Revision,
			Fingerprint: ent.Fingerprint,
			Reloads:     s.registry.Reloads(ent.ID),
			Pool: PoolInfo{
				IdleCaches: ps.IdleCount,
				Bytes:      ps.Bytes,
				Checkouts:  ps.Checkouts,
				Misses:     ps.Misses,
				Evictions:  ps.Evictions,
				Sessions:   ps.Reuse.Sessions,
				Reuses:     ps.Reuse.Reuses,
			},
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// handleTenantAdmin serves POST /tenants/{id}/reload: re-run the
// tenant's loader and swap in the new revision. By default the swap is
// skipped when the input fingerprint is unchanged; ?force=1 swaps
// regardless. Either way a revision that keeps the universe keeps the
// tenant's warm caches. A failed load keeps the old revision serving and
// reports 502.
func (s *Server) handleTenantAdmin(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/tenants/")
	id, action, ok := strings.Cut(rest, "/")
	if !ok || action != "reload" || id == "" {
		http.Error(w, "want /tenants/{id}/reload", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	force := r.URL.Query().Get("force") == "1"
	if _, known := s.registry.Get(id); !known {
		http.Error(w, fmt.Sprintf("unknown tenant %q", id), http.StatusNotFound)
		return
	}
	ent, swapped, err := s.registry.Reload(id, force)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ReloadReply{ID: ent.ID, Revision: ent.Revision, Swapped: swapped})
}
