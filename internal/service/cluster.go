package service

// The cluster tier of the service: consistent-hash sharding of the
// canonical cache over a set of mapserve nodes (DESIGN.md §12).
//
// Every composite key (mapCacheKey, paretoCacheKey) has exactly one
// ring owner. A non-owner that misses its local cache forwards the
// problem to the owner over /peer/v1/lookup and caches the answer
// locally (forward-then-fill), so the owner's cache plus its
// singleflight group make each problem searched at most once
// cluster-wide, while repeat traffic on any node stays local after the
// first fill. When the owner is unreachable the non-owner degrades to a
// local search and then pushes the result to the owner over
// /peer/v1/fill, converging the cluster back onto its sharding
// invariant. Both legs carry every workload, tagged with its kind; the
// pipeline that drives them is in workload.go.
//
// Loop freedom is structural, not just header-enforced: only flights
// opened for origin requests may forward, and a flight opened by the
// peer-lookup handler always resolves locally — so a forward chain is
// at most origin → owner even when nodes disagree about membership.
// The cluster.HopHeader check in the HTTP layer (508 beyond
// cluster.MaxHops) is a belt-and-braces guard for buggy or
// misconfigured peers.
//
// Results received from peers are never trusted blindly: the receiver
// re-canonicalizes the wire problem, verifies the recomputed composite
// key, rebuilds the mappings (shape, ΠD > 0, rank via
// schedule.NewMapping) and certifies the result before caching it — a
// map result with certifyMap, a front with verify.CertifyPareto.

import (
	"net/http"
	"time"

	"lodim/internal/cluster"
)

// ClusterConfig federates a Service with its peers.
type ClusterConfig struct {
	// Self identifies this node. Self.URL is the advertise address peers
	// use to reach it (scheme + host + port, no path).
	Self cluster.Member
	// Peers are the other members. An entry whose ID equals Self.ID is
	// skipped, so every node can be handed the same membership list.
	Peers []cluster.Member
	// VNodes is the virtual-node count per member
	// (0 selects cluster.DefaultVNodes).
	VNodes int
	// Client, when non-nil, overrides the peer HTTP client. The default
	// carries no global timeout — per-call contexts bound each exchange.
	Client *http.Client
	// FillTimeout bounds each best-effort cache-fill push to an owner
	// (0 selects 5s).
	FillTimeout time.Duration
}

// clusterState is the built form of ClusterConfig inside the Service.
type clusterState struct {
	self        cluster.Member
	ring        *cluster.Ring
	client      *cluster.Client
	httpc       *http.Client // raw client, for job-endpoint proxying
	health      *cluster.Health
	fillTimeout time.Duration
}

func newClusterState(cc *ClusterConfig) (*clusterState, error) {
	members := []cluster.Member{cc.Self}
	var peers []cluster.Member
	for _, p := range cc.Peers {
		if p.ID == cc.Self.ID {
			continue
		}
		members = append(members, p)
		peers = append(peers, p)
	}
	ring, err := cluster.NewRing(cc.VNodes, members...)
	if err != nil {
		return nil, err
	}
	httpc := cc.Client
	if httpc == nil {
		httpc = &http.Client{}
	}
	health := cluster.NewHealth(peers...)
	ft := cc.FillTimeout
	if ft <= 0 {
		ft = 5 * time.Second
	}
	return &clusterState{
		self:        cc.Self,
		ring:        ring,
		client:      cluster.NewClient(httpc, health),
		httpc:       httpc,
		health:      health,
		fillTimeout: ft,
	}, nil
}

// ClusterStatus is the cluster section of Status: identity, membership
// and passive peer health.
type ClusterStatus struct {
	Self    string               `json:"self"`
	Members []string             `json:"members"`
	VNodes  int                  `json:"vnodes"`
	Peers   []cluster.PeerStatus `json:"peers"`
}

func (c *clusterState) status() *ClusterStatus {
	ms := c.ring.Members()
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return &ClusterStatus{Self: c.self.ID, Members: ids, VNodes: c.ring.VNodes(), Peers: c.health.Snapshot()}
}
