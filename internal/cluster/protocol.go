package cluster

import (
	"encoding/json"

	"lodim/internal/slo"
)

// The peer protocol: two JSON-over-HTTP endpoints every clustered
// mapserve node serves alongside its public API.
//
//	POST /peer/v1/lookup — resolve a canonical problem: answer from the
//	  local cache or run the search (deduplicated with every other
//	  lookup of the same key, local or remote). The forwarder caches
//	  the result locally afterwards (forward-then-fill).
//	POST /peer/v1/fill — push a finished result into the receiver's
//	  cache. Used by a node that had to search locally because the
//	  owner was unreachable, so the owner converges once it returns.
//
// Both legs serve every cached workload. A body names its workload in
// Kind and carries the workload's canonical request and result as
// opaque JSON: this package routes and transports them, the service
// layer owns their shape. Receivers reject an unknown Kind, decode the
// problem strictly, re-canonicalize it and reject any body whose
// recomputed key disagrees, and certify every result before caching
// it, so a buggy or malicious peer cannot poison a cache.
const (
	LookupPath = "/peer/v1/lookup"
	FillPath   = "/peer/v1/fill"
)

// HopHeader counts peer-to-peer forwards. Origin requests have no hop
// header; a forwarded lookup carries "1". A receiving node always
// answers a peer lookup locally — it never re-forwards — so a value
// above MaxHops can only mean a forwarding loop (for example two nodes
// with disagreeing membership views each believing the other is the
// owner under a future protocol change) and is rejected with 508.
const (
	HopHeader = "X-Mapserve-Hop"
	MaxHops   = 1
)

// LookupRequest asks the receiver to resolve one canonical problem of
// workload Kind. Key is the composite cache key the sender computed;
// the receiver recomputes it from Problem and rejects mismatches.
// TimeoutMS propagates the remaining deadline of the originating
// request so the owner bounds its search by the caller's budget, not
// its own default.
type LookupRequest struct {
	Kind      string          `json:"kind"`
	Key       string          `json:"key"`
	Problem   json.RawMessage `json:"problem"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// Dispositions a lookup can resolve with, from the owner's point of
// view. The forwarding node reports them to its client as
// "peer_hit" / "peer_miss" / "peer_shared".
const (
	DispositionHit    = "hit"    // served from the owner's cache
	DispositionMiss   = "miss"   // the owner ran the search
	DispositionShared = "shared" // joined an in-progress search on the owner
)

// LookupResponse carries the workload's result in canonical
// coordinates and how the owner produced it. Result holds the
// workload's own wire type: the owner sets it, and Client.Lookup
// decodes into the value its caller supplies.
type LookupResponse struct {
	Disposition string `json:"disposition"`
	Result      any    `json:"result"`
}

// FillRequest pushes a finished result into the receiver's cache,
// tagged and keyed exactly like a lookup.
type FillRequest struct {
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Problem json.RawMessage `json:"problem"`
	Result  json.RawMessage `json:"result"`
}

// FillResponse acknowledges a fill.
type FillResponse struct {
	Stored bool `json:"stored"`
}

// The status leg of the peer protocol is read-only: one GET every
// clustered (or standalone) node serves so a coordinator can merge a
// fleet-wide view without ssh.
//
//	GET /peer/v1/status — the node's observability snapshot: request
//	  counters, SLO engine state, tenant top-K and its view of the ring.
//
// The hop guard applies exactly as on the write legs: a status fan-out
// carries MaxHops, so a receiving node answers locally and never
// re-fans.
const StatusPath = "/peer/v1/status"

// TenantUsage is one tenant's accumulated usage counters. The service
// layer bounds tenant-label cardinality (LRU + an "other" overflow
// bucket), so a fleet merge sums a small, closed set.
type TenantUsage struct {
	Tenant          string `json:"tenant"`
	Requests        int64  `json:"requests"`
	CacheHits       int64  `json:"cache_hits"`
	SearchMillis    int64  `json:"search_ms"`
	QueueRejections int64  `json:"queue_rejections"`
}

// RingView is the node's own view of cluster membership and passive
// peer health. Disagreeing views across nodes are themselves a finding
// the fleet page surfaces.
type RingView struct {
	Self    string       `json:"self"`
	Members []string     `json:"members"`
	VNodes  int          `json:"vnodes"`
	Peers   []PeerStatus `json:"peers,omitempty"`
}

// NodeStatus is one node's observability snapshot, served at
// StatusPath and merged by /v1/cluster/status.
type NodeStatus struct {
	Node          string  `json:"node"`
	Status        string  `json:"status"` // "ok" | "degraded" | "shutting_down"
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Searches    int64 `json:"searches"`
	Rejected    int64 `json:"rejected"`
	Timeouts    int64 `json:"timeouts"`
	Failures    int64 `json:"failures"`

	SLO     *slo.Snapshot `json:"slo,omitempty"`
	Tenants []TenantUsage `json:"tenants,omitempty"`
	Ring    *RingView     `json:"ring,omitempty"`
}
