package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lodim/internal/cluster"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/uda"
)

// The third axis-permuted restatement of e2eBody, under σ = (1,2,0).
// Together with e2eBody and e2ePerm this gives one distinct wire body
// per node of a 3-node cluster, all canonicalizing to one problem.
const e2ePerm2 = `{"bounds":[3,4,2],"dependencies":[[0,0,1],[1,0,1],[1,1,0]],"dims":1}`

// testCluster is an n-node mapserve cluster on loopback listeners.
// Ports are bound before the services exist so every node is built
// with the full membership.
type testCluster struct {
	members []cluster.Member
	svcs    []*Service
	srvs    []*httptest.Server
}

func newTestCluster(t *testing.T, n int, mods ...func(i int, cfg *Config)) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	tc := &testCluster{members: make([]cluster.Member, n)}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tc.members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), URL: "http://" + ln.Addr().String()}
	}
	for i := 0; i < n; i++ {
		cfg := Config{
			Pool:          2,
			SearchWorkers: 1,
			Cluster:       &ClusterConfig{Self: tc.members[i], Peers: tc.members},
		}
		for _, mod := range mods {
			mod(i, &cfg)
		}
		svc := New(cfg)
		srv := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: NewHandler(svc)}}
		srv.Start()
		tc.svcs = append(tc.svcs, svc)
		tc.srvs = append(tc.srvs, srv)
	}
	t.Cleanup(func() {
		for _, srv := range tc.srvs {
			srv.Close()
		}
		for _, svc := range tc.svcs {
			svc.Close()
		}
	})
	return tc
}

// ownerIndex resolves which node owns the canonical problem a request
// body describes.
func (tc *testCluster) ownerIndex(t *testing.T, body string) int {
	t.Helper()
	var req MapRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	algo, dims, err := validateMapRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	key := mapCacheKey(Canonicalize(algo).Key, dims, &req)
	owner := tc.svcs[0].clu.ring.Owner(key)
	for i, m := range tc.members {
		if m.ID == owner.ID {
			return i
		}
	}
	t.Fatalf("owner %q is not a member", owner.ID)
	return -1
}

// totalSearches sums the search counter across every node.
func (tc *testCluster) totalSearches() int64 {
	var n int64
	for _, svc := range tc.svcs {
		n += svc.met.searches.Load()
	}
	return n
}

// gateSearches replaces every node's search with a gated wrapper and
// returns the gate plus a counter of entered searches.
func (tc *testCluster) gateSearches() (gate chan struct{}, entered *atomic.Int64) {
	gate = make(chan struct{})
	entered = &atomic.Int64{}
	for _, svc := range tc.svcs {
		real := svc.searchJoint
		svc.searchJoint = func(ctx context.Context, algo *uda.Algorithm, dims int, opts *schedule.SpaceOptions) (*schedule.JointResult, error) {
			entered.Add(1)
			<-gate
			return real(ctx, algo, dims, opts)
		}
	}
	return gate, entered
}

// TestClusterE2EDistributedSingleflight: three clients post permuted
// restatements of one problem, each to a different node, concurrently.
// Exactly one search runs cluster-wide, every body is byte-identical,
// and the cache headers expose who served locally versus via a peer.
func TestClusterE2EDistributedSingleflight(t *testing.T) {
	tc := newTestCluster(t, 3)
	gate, entered := tc.gateSearches()

	// The owner gets the problem's original statement; the two
	// non-owners both get the same permuted restatement — responses are
	// rendered in request coordinates, so byte-identity is only
	// meaningful between identical requests.
	ownerIdx := tc.ownerIndex(t, e2eBody)
	owner := tc.svcs[ownerIdx]
	bodies := make([]string, 3)
	for i := range bodies {
		if i == ownerIdx {
			bodies[i] = e2eBody
		} else {
			bodies[i] = e2ePerm
		}
	}

	type reply struct {
		node   int
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, len(bodies))
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			status, hdr, body := postJSON(t, tc.srvs[i].URL+"/v1/map", b)
			replies <- reply{i, status, hdr.Get("X-Mapserve-Cache"), body}
		}(i, b)
	}
	// One search must be open and both non-owner requests must have
	// joined the owner's flight (as peer-lookup followers) before the
	// gate lifts: the dedup is then provably concurrent, not sequenced.
	waitCounter(t, entered, 1)
	waitCounter(t, &owner.met.deduped, 2)
	close(gate)
	wg.Wait()
	close(replies)

	var got []reply
	for r := range replies {
		if r.status != 200 {
			t.Fatalf("node %d: status %d (%s)", r.node, r.status, r.body)
		}
		got = append(got, r)
	}
	if n := tc.totalSearches(); n != 1 {
		t.Errorf("cluster-wide searches = %d, want exactly 1", n)
	}
	if n := entered.Load(); n != 1 {
		t.Errorf("search bodies entered = %d, want exactly 1", n)
	}
	var followers []reply
	var invariants []MapResponse
	for _, r := range got {
		var out MapResponse
		if err := json.Unmarshal(r.body, &out); err != nil {
			t.Fatal(err)
		}
		invariants = append(invariants, out)
		if r.node == ownerIdx {
			if r.cache != "miss" && r.cache != "shared" {
				t.Errorf("owner node %d cache = %q, want miss or shared", r.node, r.cache)
			}
		} else {
			followers = append(followers, r)
			if r.cache != "peer_miss" && r.cache != "peer_shared" {
				t.Errorf("non-owner node %d cache = %q, want peer_miss or peer_shared", r.node, r.cache)
			}
		}
	}
	// The two identical follower requests must get byte-identical
	// bodies even though different nodes rendered them.
	if len(followers) != 2 {
		t.Fatalf("followers = %d, want 2", len(followers))
	}
	if !bytes.Equal(followers[0].body, followers[1].body) {
		t.Errorf("follower bodies differ between node %d and node %d:\n%s\n%s",
			followers[0].node, followers[1].node, followers[0].body, followers[1].body)
	}
	// Every answer shares the canonical key and all invariant figures.
	for _, out := range invariants[1:] {
		if out.CanonicalKey != invariants[0].CanonicalKey {
			t.Errorf("canonical keys differ: %q vs %q", out.CanonicalKey, invariants[0].CanonicalKey)
		}
		if out.TotalTime != invariants[0].TotalTime || out.Processors != invariants[0].Processors ||
			out.WireLength != invariants[0].WireLength || out.Cost != invariants[0].Cost {
			t.Errorf("invariants differ across nodes: %+v vs %+v", out, invariants[0])
		}
	}
}

// TestClusterE2EPeerCacheFill: a forwarded answer is cached on the
// forwarding node, so the node answers repeats locally — the aggregate
// hit ratio rises above what any single node's cache could give.
func TestClusterE2EPeerCacheFill(t *testing.T) {
	tc := newTestCluster(t, 3)
	ownerIdx := tc.ownerIndex(t, e2eBody)
	follower := (ownerIdx + 1) % 3

	// Cold: the non-owner forwards, the owner searches once.
	status, hdr, first := postJSON(t, tc.srvs[follower].URL+"/v1/map", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "peer_miss" {
		t.Fatalf("cold forward: %d %q (%s)", status, hdr.Get("X-Mapserve-Cache"), first)
	}
	if n := tc.totalSearches(); n != 1 {
		t.Fatalf("searches after cold forward = %d, want 1", n)
	}

	// Warm: the forwarding node now answers from its own cache — no
	// peer hop, no search — with a byte-identical body.
	status, hdr, second := postJSON(t, tc.srvs[follower].URL+"/v1/map", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("warm repeat: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Errorf("filled body differs from forwarded body:\n%s\n%s", first, second)
	}

	// A permuted restatement hits the same filled entry.
	status, hdr, _ = postJSON(t, tc.srvs[follower].URL+"/v1/map", e2ePerm)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("permuted warm repeat: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}

	// The owner kept its own copy too (it served the lookup).
	status, hdr, _ = postJSON(t, tc.srvs[ownerIdx].URL+"/v1/map", e2ePerm2)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("owner local: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if n := tc.totalSearches(); n != 1 {
		t.Errorf("searches after three requests = %d, want 1 (fill + owner cache)", n)
	}

	// The third node still misses locally and forwards: peer_hit now,
	// because the owner holds the result.
	third := (ownerIdx + 2) % 3
	status, hdr, thirdBody := postJSON(t, tc.srvs[third].URL+"/v1/map", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "peer_hit" {
		t.Fatalf("third node: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if !bytes.Equal(first, thirdBody) {
		t.Errorf("peer-hit body differs:\n%s\n%s", first, thirdBody)
	}
	if n := tc.totalSearches(); n != 1 {
		t.Errorf("searches after peer hit = %d, want 1", n)
	}
}

// TestClusterE2EPeerDeathFallback: when a problem's owner dies
// mid-operation, a non-owner degrades to a local search and still
// answers; the dead peer is marked unhealthy in /v1/status.
func TestClusterE2EPeerDeathFallback(t *testing.T) {
	tc := newTestCluster(t, 3)
	ownerIdx := tc.ownerIndex(t, e2eBody)
	survivor := (ownerIdx + 1) % 3

	tc.srvs[ownerIdx].Close()

	status, hdr, body := postJSON(t, tc.srvs[survivor].URL+"/v1/map", e2eBody)
	if status != 200 {
		t.Fatalf("survivor request: %d (%s)", status, body)
	}
	if got := hdr.Get("X-Mapserve-Cache"); got != "miss" {
		t.Errorf("cache = %q, want miss (local search fallback)", got)
	}
	svc := tc.svcs[survivor]
	if n := svc.met.searches.Load(); n != 1 {
		t.Errorf("survivor searches = %d, want 1", n)
	}
	if n := svc.met.forward[peerError].Load(); n != 1 {
		t.Errorf("peer forward errors = %d, want 1", n)
	}

	// The survivor answers repeats from its cache even with the owner
	// still down.
	status, hdr, _ = postJSON(t, tc.srvs[survivor].URL+"/v1/map", e2ePerm)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Errorf("repeat after fallback: %d %q, want 200 hit", status, hdr.Get("X-Mapserve-Cache"))
	}

	// Health surfaces the death: the owner shows unhealthy in the
	// survivor's cluster status.
	st := svc.Status()
	if st.Cluster == nil {
		t.Fatal("cluster status missing")
	}
	found := false
	for _, p := range st.Cluster.Peers {
		if p.ID == tc.members[ownerIdx].ID {
			found = true
			if p.Healthy {
				t.Errorf("dead owner %s still marked healthy", p.ID)
			}
		}
	}
	if !found {
		t.Errorf("dead owner %s absent from peer status %+v", tc.members[ownerIdx].ID, st.Cluster.Peers)
	}
}

// TestClusterE2EPeerVerdictRelayed: a problem the owner answers 422 —
// one whose Π·d̄ passes int64, one with no Π meeting ΠD ≥ 1 — is
// answered 422 by a non-owner too, with the owner's message, after one
// search on the owner and none locally; no node counts a failure.
func TestClusterE2EPeerVerdictRelayed(t *testing.T) {
	tc := newTestCluster(t, 2)
	for body, want := range map[string]string{
		`{"bounds":[3,3],"dependencies":[[0,1],[1,-4611686018427387904]],"dims":1}`: "overflow",
		`{"bounds":[3,3],"dependencies":[[1,0],[-1,0]],"dims":1}`:                   "no conflict-free",
	} {
		owner := tc.ownerIndex(t, body)
		other := 1 - owner
		before := []int64{tc.svcs[0].met.searches.Load(), tc.svcs[1].met.searches.Load()}
		status, _, out := postJSON(t, tc.srvs[other].URL+"/v1/map", body)
		var eb struct{ Error string }
		if status != http.StatusUnprocessableEntity || json.Unmarshal(out, &eb) != nil ||
			!strings.Contains(eb.Error, want) || !strings.Contains(eb.Error, "decided by peer "+tc.members[owner].ID) {
			t.Errorf("%s via a non-owner: status %d, body %s; want 422 relaying %q", body, status, out, want)
		}
		if o, l := tc.svcs[owner].met.searches.Load()-before[owner], tc.svcs[other].met.searches.Load()-before[other]; o != 1 || l != 0 {
			t.Errorf("%s: %d searches on the owner, %d on the non-owner; want 1 and 0", body, o, l)
		}
	}
	for i, svc := range tc.svcs {
		if n := svc.met.failures.Load(); n != 0 {
			t.Errorf("node %d counted %d failures", i, n)
		}
		if n := svc.met.forward[peerError].Load(); n != 0 {
			t.Errorf("node %d counted %d peer forward errors", i, n)
		}
	}
}

// TestClusterE2EHopHeader: forwarded peer calls carry the hop header;
// a request claiming more hops than the protocol allows is refused
// with 508 before any work happens, and a malformed count is a 400.
func TestClusterE2EHopHeader(t *testing.T) {
	tc := newTestCluster(t, 2)
	lreq := `{"kind":"map","key":"x","problem":{"bounds":[2,2,2],"dependencies":[[1,0,0],[0,1,0],[0,0,1]],"dims":1}}`

	for _, c := range []struct {
		hop  string
		want int
	}{
		{"2", http.StatusLoopDetected},
		{"junk", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest("POST", tc.srvs[0].URL+cluster.LookupPath, strings.NewReader(lreq))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.HopHeader, c.hop)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("hop %q: status %d, want %d", c.hop, resp.StatusCode, c.want)
		}
		// The refusal must come from the hop check, not from the body.
		if c.want == http.StatusBadRequest && !strings.Contains(string(body), cluster.HopHeader) {
			t.Errorf("hop %q: error %s does not name %s", c.hop, body, cluster.HopHeader)
		}
	}
}

// TestClusterE2EFillValidation: a peer fill carrying a tampered result
// is rejected — the receiving node revalidates before caching.
func TestClusterE2EFillValidation(t *testing.T) {
	tc := newTestCluster(t, 2)
	ownerIdx := tc.ownerIndex(t, e2eBody)
	other := 1 - ownerIdx

	// Obtain a genuine wire result by asking the owner directly, then
	// lifting the cached canonical result it just computed. Going
	// through the owner keeps the other node's search count at zero.
	status, _, body := postJSON(t, tc.srvs[ownerIdx].URL+"/v1/map", e2eBody)
	if status != 200 {
		t.Fatalf("seed request: %d (%s)", status, body)
	}

	var req MapRequest
	if err := json.Unmarshal([]byte(e2eBody), &req); err != nil {
		t.Fatal(err)
	}
	algo, dims, err := validateMapRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	p := new(problem[MapRequest])
	*p = mapWorkload.newProblem(&req, algo, dims, 0)
	cached, ok := tc.svcs[ownerIdx].cache.Get(p.key)
	if !ok {
		t.Fatal("seed result missing from node 0's cache")
	}

	fill := func(t *testing.T, res *mapWire, wantStored bool, wantStatus int) {
		t.Helper()
		fr := mapWorkload.fillRequest(p, cached.(*schedule.JointResult))
		fr.Result = mustJSON(res)
		freq, _ := json.Marshal(fr)
		status, _, body := postJSON(t, tc.srvs[other].URL+cluster.FillPath, string(freq))
		if status != wantStatus {
			t.Fatalf("fill status = %d, want %d (%s)", status, wantStatus, body)
		}
		if wantStatus != 200 {
			return
		}
		var fresp cluster.FillResponse
		if err := json.Unmarshal(body, &fresp); err != nil {
			t.Fatal(err)
		}
		if fresp.Stored != wantStored {
			t.Errorf("stored = %v, want %v", fresp.Stored, wantStored)
		}
	}

	// A lying total time must be refused: the receiver recomputes the
	// schedule figure from Π and the bounds.
	genuine := wireFromResult(cached.(*schedule.JointResult))
	bogus := *genuine
	bogus.Time = genuine.Time + 1
	fill(t, &bogus, false, http.StatusBadRequest)
	if n := tc.svcs[other].met.fills[fillRejected].Load(); n != 1 {
		t.Errorf("rejected fills = %d, want 1", n)
	}

	// The genuine result is accepted and cached: the next local request
	// is a hit with zero searches on node 1.
	fill(t, genuine, true, http.StatusOK)
	status, hdr, _ := postJSON(t, tc.srvs[other].URL+"/v1/map", e2ePerm)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Errorf("after fill: %d %q, want 200 hit", status, hdr.Get("X-Mapserve-Cache"))
	}
	if n := tc.svcs[other].met.searches.Load(); n != 0 {
		t.Errorf("non-owner searches = %d, want 0 (the fill preloaded it)", n)
	}
}

// peerFill pushes one map result for p to the first node of a fresh
// two-node cluster and returns the status and that node.
func peerFill(t *testing.T, p *problem[MapRequest], wire *mapWire) (int, *testCluster) {
	t.Helper()
	tc := newTestCluster(t, 2)
	fr := &cluster.FillRequest{Kind: "map", Key: p.key, Problem: mustJSON(mapWorkload.canonical(p)), Result: mustJSON(wire)}
	body, _ := json.Marshal(fr)
	status, _, _ := postJSON(t, tc.srvs[0].URL+cluster.FillPath, string(body))
	return status, tc
}

// assertFillRejected checks that a refused fill left no cache entry and
// counted one rejection.
func assertFillRejected(t *testing.T, tc *testCluster, key string) {
	t.Helper()
	if _, ok := tc.svcs[0].cache.Get(key); ok {
		t.Error("rejected result entered the cache")
	}
	resp, err := http.Get(tc.srvs[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `mapserve_peer_fills_total{kind="rejected"} 1`; !strings.Contains(string(text), want) {
		t.Errorf("/metrics lacks %s", want)
	}
}

// forwardToPeer runs Map for p on a node whose ring owner for p's key
// answers every lookup with wire. search stands in for the node's own
// search, which runs when the answer is refused.
func forwardToPeer(t *testing.T, p *problem[MapRequest], wire *mapWire, search func() (*schedule.JointResult, error)) (*Service, CacheStatus, int64, error) {
	t.Helper()
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&cluster.LookupResponse{Disposition: cluster.DispositionMiss, Result: mustJSON(wire)})
	}))
	t.Cleanup(peerSrv.Close)
	// Name the peer so that it owns the key.
	self := cluster.Member{ID: "self", URL: "http://127.0.0.1:1"}
	var peer cluster.Member
	for i := 0; ; i++ {
		peer = cluster.Member{ID: fmt.Sprintf("peer%d", i), URL: peerSrv.URL}
		ring, err := cluster.NewRing(0, self, peer)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(p.key).ID == peer.ID {
			break
		}
	}
	svc := New(Config{Pool: 1, SearchWorkers: 1, Cluster: &ClusterConfig{Self: self, Peers: []cluster.Member{peer}}})
	t.Cleanup(svc.Close)
	var searched atomic.Int64
	svc.searchJoint = func(context.Context, *uda.Algorithm, int, *schedule.SpaceOptions) (*schedule.JointResult, error) {
		searched.Add(1)
		return search()
	}
	_, status, err := svc.Map(context.Background(), p.req)
	return svc, status, searched.Load(), err
}

// TestClusterE2EConflictingResultRejected: a conflicting map result is
// refused at any index-set size, whether a peer pushes it as a fill or
// answers a forwarded lookup with it. The result is well shaped, passes
// ΠD > 0 and states its total time correctly, yet on μ = (128, 128, 128)
// with S = [1 0 0] and Π = [1 1 1] the kernel vector (0, 1, −1) fits in
// the box. |J| = 129³ is above 2^20, too large to re-decide
// conflict-freedom by enumerating J.
func TestClusterE2EConflictingResultRejected(t *testing.T) {
	req := &MapRequest{Bounds: []int64{128, 128, 128}, Dependencies: [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, Dims: 1}
	algo, dims, err := validateMapRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if !algo.Set.SizeExceeds(maxIndexPoints) {
		t.Fatalf("|J| = %d is within %d", algo.Set.Size(), maxIndexPoints)
	}
	p := mapWorkload.newProblem(req, algo, dims, 0)
	bad := &mapWire{S: [][]int64{{1, 0, 0}}, Pi: []int64{1, 1, 1}, Time: 1 + 3*128, Processors: 129, Engine: "procedure-5.1"}

	t.Run("fill", func(t *testing.T) {
		status, tc := peerFill(t, &p, bad)
		if status != http.StatusBadRequest {
			t.Fatalf("conflicting fill: status %d, want 400", status)
		}
		assertFillRejected(t, tc, p.key)
	})

	t.Run("lookup", func(t *testing.T) {
		svc, status, searched, err := forwardToPeer(t, &p, bad, func() (*schedule.JointResult, error) {
			return nil, schedule.ErrNoSchedule
		})
		if !errors.Is(err, schedule.ErrNoSchedule) || status != CacheMiss {
			t.Fatalf("Map = %q, %v; want the local search's own answer", status, err)
		}
		if searched != 1 {
			t.Errorf("local searches = %d, want 1", searched)
		}
		if n := svc.met.forward[peerError].Load(); n != 1 {
			t.Errorf("peer forward errors = %d, want 1", n)
		}
		if _, ok := svc.cache.Get(p.key); ok {
			t.Error("conflicting result entered the cache")
		}
	})
}

// TestClusterE2EPeerResultBeyondSweep covers peer results that the
// verifier's former β-box sweep could not settle within its budget or
// int64. The conflict-free ones — a deep null space, and a basis with
// entries near 10³ whose sweep bounds overflowed — are now decided by
// the lattice search and accepted. One whose Hermite factorization
// leaves int64 is refused, answering 400 to a fill and degrading a
// forward to a local search, and it never panics.
func TestClusterE2EPeerResultBeyondSweep(t *testing.T) {
	// μ = (1, 1, 7, 7) with dependence e4 is already canonical.
	req := &MapRequest{Bounds: []int64{1, 1, 7, 7}, Dependencies: [][]int64{{0, 0, 0, 1}}, Dims: 1}
	algo, dims, err := validateMapRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	p := mapWorkload.newProblem(req, algo, dims, 0)
	deep, deepWire := deepNullSpaceProblem(t)
	for name, c := range map[string]struct {
		p    *problem[MapRequest]
		wire *mapWire
	}{
		"deep null space accepted": {&deep, deepWire},
		"wide basis accepted":      {&p, &mapWire{S: [][]int64{{178, -894, 831, 40}}, Pi: []int64{820, 726, 256, 547}, Time: 7168, Processors: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			status, tc := peerFill(t, c.p, c.wire)
			if status != http.StatusOK {
				t.Fatalf("fill: status %d, want 200", status)
			}
			if _, ok := tc.svcs[0].cache.Get(c.p.key); !ok {
				t.Error("accepted fill left no cache entry")
			}
		})
	}

	// The first result overflows the verifier's Hermite factorization,
	// the second already the rank check.
	for name, wire := range map[string]*mapWire{
		"hnf overflow": {S: [][]int64{{1898783637, -1930117241, -971266136, -1985023419}},
			Pi: []int64{573394572, 509016719, -2065724704, 1770185555}, Time: 27933783105, Processors: 1},
		"rank overflow": {S: [][]int64{{1 << 62, 3, 1, 1}}, Pi: []int64{1 << 40, 5, 1, 1}, Time: 1<<40 + 13, Processors: 1},
	} {
		t.Run(name+" fill refused", func(t *testing.T) {
			status, tc := peerFill(t, &p, wire)
			if status != http.StatusBadRequest {
				t.Fatalf("fill: status %d, want 400", status)
			}
			assertFillRejected(t, tc, p.key)
		})
		t.Run(name+" lookup refused", func(t *testing.T) {
			svc, status, searched, err := forwardToPeer(t, &p, wire, func() (*schedule.JointResult, error) {
				return nil, schedule.ErrNoSchedule
			})
			if !errors.Is(err, schedule.ErrNoSchedule) || status != CacheMiss || searched != 1 {
				t.Fatalf("Map = %q, %v after %d local searches; want the local search's own answer", status, err, searched)
			}
			if n := svc.met.forward[peerError].Load(); n != 1 {
				t.Errorf("peer forward errors = %d, want 1", n)
			}
		})
	}
}

// TestClusterE2EJobForwardsWithoutJobTier: a clustered node with no job
// tier of its own still proxies job submissions to the ring owner, and
// those forwards show on its /metrics.
func TestClusterE2EJobForwardsWithoutJobTier(t *testing.T) {
	var mreq MapRequest
	if err := json.Unmarshal([]byte(e2eBody), &mreq); err != nil {
		t.Fatal(err)
	}
	algo, dims, err := validateMapRequest(&mreq)
	if err != nil {
		t.Fatal(err)
	}
	id := jobs.ID(JobKindMap, mapCacheKey(Canonicalize(algo).Key, dims, &mreq))
	// The ring hashes member IDs only, so the owner is known before the
	// nodes are built; only the owner gets a job tier.
	ring, err := cluster.NewRing(0, cluster.Member{ID: "node0"}, cluster.Member{ID: "node1"})
	if err != nil {
		t.Fatal(err)
	}
	owner := 0
	if ring.Owner("job|"+id).ID == "node1" {
		owner = 1
	}
	tc := newTestCluster(t, 2, func(i int, cfg *Config) {
		if i == owner {
			cfg.Jobs = &JobsConfig{Dir: t.TempDir()}
		}
	})
	jobless := 1 - owner

	status, _, body := postJSON(t, tc.srvs[jobless].URL+"/v1/jobs", `{"map":`+e2eBody+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit via the jobless node: status %d: %s", status, body)
	}
	_, _, metrics := httpReq(t, http.MethodGet, tc.srvs[jobless].URL+"/metrics", "")
	if !strings.Contains(string(metrics), "\nmapserve_jobs_forwarded_total 1\n") {
		t.Fatalf("jobless node /metrics lacks mapserve_jobs_forwarded_total 1:\n%s", metrics)
	}
	waitJobHTTP(t, tc.srvs[owner].URL, decodeJobResponse(t, body).ID, jobs.StateDone)
}

// TestClusterE2EJobRouting: a job submitted to a non-owner node is
// proxied to the ring owner of its job ID and lands there exactly
// once; status, result, and cancel requests from any node reach the
// same job; the replayed result matches the synchronous response.
func TestClusterE2EJobRouting(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Jobs = &JobsConfig{Dir: t.TempDir()}
	})

	// Resolve the ring owner of the job's ID (not of the cache key —
	// job routing hashes "job|<id>").
	var mreq MapRequest
	if err := json.Unmarshal([]byte(e2eBody), &mreq); err != nil {
		t.Fatal(err)
	}
	algo, dims, err := validateMapRequest(&mreq)
	if err != nil {
		t.Fatal(err)
	}
	id := jobs.ID(JobKindMap, mapCacheKey(Canonicalize(algo).Key, dims, &mreq))
	ownerMem := tc.svcs[0].clu.ring.Owner("job|" + id)
	owner := -1
	for i, m := range tc.members {
		if m.ID == ownerMem.ID {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatalf("owner %q is not a member", ownerMem.ID)
	}
	submitter := (owner + 1) % 3
	third := (owner + 2) % 3

	status, _, body := postJSON(t, tc.srvs[submitter].URL+"/v1/jobs", `{"map":`+e2eBody+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit via non-owner: status %d: %s", status, body)
	}
	jr := decodeJobResponse(t, body)
	if jr.ID != id {
		t.Fatalf("submitted job ID %s, want %s", jr.ID, id)
	}

	// The job lives on the owner and nowhere else.
	if _, ok := tc.svcs[owner].jobsMgr.Get(id); !ok {
		t.Fatal("job not on the ring owner")
	}
	for _, i := range []int{submitter, third} {
		if _, ok := tc.svcs[i].jobsMgr.Get(id); ok {
			t.Fatalf("job also landed on node %d", i)
		}
		if st := tc.svcs[i].JobStats(); st.Submitted != 0 {
			t.Fatalf("node %d stats %+v, want no submissions", i, st)
		}
	}
	if st := tc.svcs[owner].JobStats(); st.Submitted != 1 {
		t.Fatalf("owner stats %+v, want Submitted=1", st)
	}
	if n := tc.svcs[submitter].met.jobsForwarded.Load(); n != 1 {
		t.Fatalf("submitter forwarded %d job requests, want 1", n)
	}

	// Status polling through the third node is forwarded to the owner.
	final := waitJobHTTP(t, tc.srvs[third].URL, id, jobs.StateDone)
	if final.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", final.Attempts)
	}
	if n := tc.svcs[third].met.jobsForwarded.Load(); n == 0 {
		t.Fatal("third node answered status without forwarding")
	}

	// The result replayed through a non-owner equals the synchronous
	// response computed on the owner.
	_, _, jobResult := httpReq(t, http.MethodGet, tc.srvs[third].URL+"/v1/jobs/"+id+"/result", "")
	status, _, syncBody := postJSON(t, tc.srvs[owner].URL+"/v1/map", e2eBody)
	if status != http.StatusOK {
		t.Fatalf("sync map status %d", status)
	}
	if string(jobResult) != string(syncBody) {
		t.Fatalf("cluster job result differs from synchronous response:\njob:  %s\nsync: %s", jobResult, syncBody)
	}

	// A duplicate submission through the other non-owner dedups on the
	// owner's job.
	status, _, body = postJSON(t, tc.srvs[third].URL+"/v1/jobs", `{"map":`+e2ePerm+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("dup submit status %d: %s", status, body)
	}
	if dup := decodeJobResponse(t, body); dup.ID != id || !dup.Deduped {
		t.Fatalf("dup submit got %+v, want deduped job %s", dup, id)
	}
}
