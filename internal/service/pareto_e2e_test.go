package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"lodim/internal/corpus"
	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/verify"
)

// vec is one front member's objective vector as the API renders it.
type vec struct{ Time, Procs, Bufs, Links int64 }

func frontVectors(resp *ParetoResponse) []vec {
	out := make([]vec, len(resp.Front))
	for i, m := range resp.Front {
		out[i] = vec{m.TotalTime, m.Processors, m.Buffers, m.Links}
	}
	return out
}

// checkFrontInvariants asserts the response-level front contract: the
// pinned order (strictly ascending lexicographic vectors — equal
// vectors cannot both be non-dominated) and pairwise non-domination.
func checkFrontInvariants(t *testing.T, resp *ParetoResponse) {
	t.Helper()
	vs := frontVectors(resp)
	if len(vs) == 0 {
		t.Fatal("empty front")
	}
	less := func(a, b vec) bool {
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Procs != b.Procs {
			return a.Procs < b.Procs
		}
		if a.Bufs != b.Bufs {
			return a.Bufs < b.Bufs
		}
		return a.Links < b.Links
	}
	dominates := func(a, b vec) bool {
		return a.Time <= b.Time && a.Procs <= b.Procs && a.Bufs <= b.Bufs && a.Links <= b.Links && a != b
	}
	for i := 1; i < len(vs); i++ {
		if !less(vs[i-1], vs[i]) {
			t.Errorf("front order violated at %d: %+v !< %+v", i, vs[i-1], vs[i])
		}
	}
	for i := range vs {
		for j := range vs {
			if i != j && dominates(vs[i], vs[j]) {
				t.Errorf("front member %d (%+v) dominates member %d (%+v)", i, vs[i], j, vs[j])
			}
		}
	}
	if resp.Best < 0 || resp.Best >= len(vs) {
		t.Errorf("best index %d out of front range [0,%d)", resp.Best, len(vs))
	}
	if !resp.Certified {
		t.Error("response not marked certified")
	}
}

// certifyResponse re-runs the independent Pareto verifier over the
// response as delivered — members and vectors in request coordinates.
func certifyResponse(t *testing.T, reqBody string, resp *ParetoResponse) {
	t.Helper()
	var req ParetoRequest
	if err := json.Unmarshal([]byte(reqBody), &req); err != nil {
		t.Fatal(err)
	}
	algo, err := algoFromRequest(req.Algorithm, req.Sizes, req.Bounds, req.Dependencies)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]verify.ParetoInput, len(resp.Front))
	for i, m := range resp.Front {
		members[i] = verify.ParetoInput{
			S:  intmat.FromRows(m.S...),
			Pi: intmat.Vector(m.Pi),
			Vector: [verify.ParetoAxes]int64{
				m.TotalTime, m.Processors, m.Buffers, m.Links,
			},
		}
	}
	cert, err := verify.CertifyPareto(context.Background(), algo, members, resp.TimeBound, &verify.Options{SkipOptimality: true})
	if err != nil {
		t.Fatalf("verifier on delivered front: %v", err)
	}
	if cerr := cert.Err(); cerr != nil {
		t.Errorf("verifier rejected the delivered front: %v", cerr)
	}
}

// TestE2EPareto: the endpoint's core contract — a miss then a
// byte-identical hit, a certified front in pinned order, the min-time
// member agreeing with /v1/map, and selection modes answered from the
// cached front without a second search.
func TestE2EPareto(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 1})

	status, hdr, body := postJSON(t, srv.URL+"/v1/pareto", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "miss" {
		t.Fatalf("cold request: %d %q %s", status, hdr.Get("X-Mapserve-Cache"), body)
	}
	status, hdr, again := postJSON(t, srv.URL+"/v1/pareto", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("warm request: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if !bytes.Equal(body, again) {
		t.Errorf("hit body differs from miss body:\n%s\n%s", body, again)
	}
	if n := svc.met.searches.Load(); n != 1 {
		t.Fatalf("searches = %d, want 1", n)
	}

	var resp ParetoResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	checkFrontInvariants(t, &resp)
	certifyResponse(t, e2eBody, &resp)

	// The pinned order leads with time, so the head is the time-optimal
	// member — it must agree with the single-objective endpoint.
	status, _, mapBody := postJSON(t, srv.URL+"/v1/map", e2eBody)
	if status != 200 {
		t.Fatalf("/v1/map: %d %s", status, mapBody)
	}
	var mresp MapResponse
	if err := json.Unmarshal(mapBody, &mresp); err != nil {
		t.Fatal(err)
	}
	if resp.Front[0].TotalTime != mresp.TotalTime {
		t.Errorf("pareto min-time member at %d, /v1/map optimum %d", resp.Front[0].TotalTime, mresp.TotalTime)
	}

	// Selection modes pick from the cached front: no new search, same
	// front bytes modulo the best index.
	lexBody := `{"bounds":[2,3,4],"dependencies":[[1,0,0],[1,1,0],[0,1,1]],"dims":1,"mode":"lex","lex_order":["processors","time"]}`
	status, hdr, lex := postJSON(t, srv.URL+"/v1/pareto", lexBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("lex request: %d %q %s", status, hdr.Get("X-Mapserve-Cache"), lex)
	}
	var lresp ParetoResponse
	if err := json.Unmarshal(lex, &lresp); err != nil {
		t.Fatal(err)
	}
	minProcs := lresp.Front[0].Processors
	for _, m := range lresp.Front {
		if m.Processors < minProcs {
			minProcs = m.Processors
		}
	}
	if got := lresp.Front[lresp.Best].Processors; got != minProcs {
		t.Errorf("lex(processors,time) best has %d processors, front minimum is %d", got, minProcs)
	}

	wBody := `{"bounds":[2,3,4],"dependencies":[[1,0,0],[1,1,0],[0,1,1]],"dims":1,"mode":"weighted","weights":{"time":1,"links":100}}`
	status, hdr, _ = postJSON(t, srv.URL+"/v1/pareto", wBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("weighted request: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	// One pareto search plus the /v1/map search above — the selection
	// requests must not have added any.
	if n := svc.met.searches.Load(); n != 2 {
		t.Errorf("searches = %d after selection-mode requests, want still 2", n)
	}
}

// TestE2EParetoCacheCounters: Pareto requests share the map cache
// families — a Pareto miss moves mapserve_cache_misses_total by one,
// and the hit that follows moves mapserve_cache_hits_total by one.
func TestE2EParetoCacheCounters(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 1, SearchWorkers: 1})
	const hits, misses = "mapserve_cache_hits_total", "mapserve_cache_misses_total"
	before := scrapeMetrics(t, svc.met)
	for i, want := range []string{"miss", "hit"} {
		status, hdr, body := postJSON(t, srv.URL+"/v1/pareto", e2eBody)
		if status != 200 || hdr.Get("X-Mapserve-Cache") != want {
			t.Fatalf("request %d: %d %q, want %s: %s", i, status, hdr.Get("X-Mapserve-Cache"), want, body)
		}
		after := scrapeMetrics(t, svc.met)
		dHits, dMisses := after[hits]-before[hits], after[misses]-before[misses]
		if (want == "miss") != (dMisses == 1 && dHits == 0) || (want == "hit") != (dHits == 1 && dMisses == 0) {
			t.Errorf("%s moved hits by %g and misses by %g", want, dHits, dMisses)
		}
		before = after
	}
}

// TestE2EParetoSlackWidensFront: a slack window admits near-optimal
// members, never loses the time-optimal head, and keys the cache
// separately from the slack-0 front.
func TestE2EParetoSlackWidensFront(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 1})

	status, _, tight := postJSON(t, srv.URL+"/v1/pareto", e2eBody)
	if status != 200 {
		t.Fatalf("slack-0: %d %s", status, tight)
	}
	slackBody := `{"bounds":[2,3,4],"dependencies":[[1,0,0],[1,1,0],[0,1,1]],"dims":1,"time_slack":3}`
	status, hdr, wide := postJSON(t, srv.URL+"/v1/pareto", slackBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "miss" {
		t.Fatalf("slack-3 request: %d %q %s", status, hdr.Get("X-Mapserve-Cache"), wide)
	}
	if n := svc.met.searches.Load(); n != 2 {
		t.Errorf("searches = %d, want 2 (slack is part of the front's identity)", n)
	}
	var tr, wr ParetoResponse
	if err := json.Unmarshal(tight, &tr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wide, &wr); err != nil {
		t.Fatal(err)
	}
	checkFrontInvariants(t, &wr)
	certifyResponse(t, slackBody, &wr)
	if len(wr.Front) < len(tr.Front) {
		t.Errorf("slack-3 front has %d members, slack-0 has %d", len(wr.Front), len(tr.Front))
	}
	if wr.Front[0].TotalTime != tr.Front[0].TotalTime {
		t.Errorf("slack window moved the time-optimal head: %d vs %d", wr.Front[0].TotalTime, tr.Front[0].TotalTime)
	}
	if wr.TimeBound != tr.TimeBound+3 {
		t.Errorf("time_bound = %d, want %d+3", wr.TimeBound, tr.TimeBound)
	}
}

// TestE2EParetoPermutationInvariance: an axis-permuted restatement of
// a cached problem is a cache hit whose front carries the identical
// objective-vector sequence — the metamorphic front-invariance oracle
// at the API boundary.
func TestE2EParetoPermutationInvariance(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 1})

	status, hdr, body := postJSON(t, srv.URL+"/v1/pareto", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "miss" {
		t.Fatalf("cold request: %d %q %s", status, hdr.Get("X-Mapserve-Cache"), body)
	}
	status, hdr, perm := postJSON(t, srv.URL+"/v1/pareto", e2ePerm)
	if status != 200 {
		t.Fatalf("permuted request: %d %s", status, perm)
	}
	if hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("permuted request cache = %q, want hit", hdr.Get("X-Mapserve-Cache"))
	}
	if n := svc.met.searches.Load(); n != 1 {
		t.Errorf("searches = %d, want 1", n)
	}

	var orig, permResp ParetoResponse
	if err := json.Unmarshal(body, &orig); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(perm, &permResp); err != nil {
		t.Fatal(err)
	}
	ov, pv := frontVectors(&orig), frontVectors(&permResp)
	if len(ov) != len(pv) {
		t.Fatalf("front sizes differ across the permutation: %d vs %d", len(ov), len(pv))
	}
	for i := range ov {
		if ov[i] != pv[i] {
			t.Errorf("member %d vector differs across the permutation: %+v vs %+v", i, ov[i], pv[i])
		}
	}
	if orig.TimeBound != permResp.TimeBound || orig.CanonicalKey != permResp.CanonicalKey {
		t.Errorf("time_bound/canonical_key differ: %d/%s vs %d/%s",
			orig.TimeBound, orig.CanonicalKey, permResp.TimeBound, permResp.CanonicalKey)
	}
	// The translated members must be valid in the *permuted* request's
	// own coordinates — the verifier re-derives every certificate there.
	checkFrontInvariants(t, &permResp)
	certifyResponse(t, e2ePerm, &permResp)

	// A fresh search of the restatement returns the cached translation
	// byte for byte.
	svc.FlushCache()
	status, hdr, fresh := postJSON(t, srv.URL+"/v1/pareto", e2ePerm)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "miss" {
		t.Fatalf("fresh permuted search: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if !bytes.Equal(perm, fresh) {
		t.Errorf("cached and fresh permuted bodies differ:\n%s\n%s", perm, fresh)
	}
}

// TestE2EParetoBadRequests: malformed Pareto inputs map to 400 with a
// JSON error; knobs for an unselected mode are rejected, not ignored.
func TestE2EParetoBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 1})
	base := `"bounds":[2,3,4],"dependencies":[[1,0,0],[1,1,0],[0,1,1]],"dims":1`
	cases := []string{
		`{` + base + `,"mode":"pareto-ish"}`,
		`{` + base + `,"lex_order":["time"]}`,
		`{` + base + `,"mode":"lex","weights":{"time":1}}`,
		`{` + base + `,"mode":"weighted","lex_order":["time"]}`,
		`{` + base + `,"mode":"lex","lex_order":["time","latency"]}`,
		`{` + base + `,"mode":"weighted","weights":{"wires":1}}`,
		`{` + base + `,"time_slack":-1}`,
		`{` + base + `,"time_slack":65}`,
		`{` + base + `,"unknown_knob":1}`,
	}
	for _, c := range cases {
		status, _, body := postJSON(t, srv.URL+"/v1/pareto", c)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c, status, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body lacks error field: %s", c, body)
		}
	}
}

// paretoOwnerIndex resolves which node owns the Pareto key a request
// body describes (the composite key shards independently of the map
// key, so the map ownerIndex does not apply).
func (tc *testCluster) paretoOwnerIndex(t *testing.T, body string) int {
	t.Helper()
	var req ParetoRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	algo, dims, _, err := validateParetoRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	key := paretoCacheKey(Canonicalize(algo).Key, dims, &req)
	owner := tc.svcs[0].clu.ring.Owner(key)
	for i, m := range tc.members {
		if m.ID == owner.ID {
			return i
		}
	}
	t.Fatalf("owner %q is not a member", owner.ID)
	return -1
}

// TestClusterE2EPareto: front queries shard over the ring like map
// queries — a non-owner forwards, the owner searches once, and every
// later query anywhere answers from caches.
func TestClusterE2EPareto(t *testing.T) {
	tc := newTestCluster(t, 3)
	ownerIdx := tc.paretoOwnerIndex(t, e2eBody)
	nonOwners := make([]int, 0, 2)
	for i := range tc.svcs {
		if i != ownerIdx {
			nonOwners = append(nonOwners, i)
		}
	}

	// A non-owner forwards; the owner runs the cluster's only search.
	status, hdr, body := postJSON(t, tc.srvs[nonOwners[0]].URL+"/v1/pareto", e2ePerm)
	if status != 200 {
		t.Fatalf("forwarded request: %d %s", status, body)
	}
	if got := hdr.Get("X-Mapserve-Cache"); got != "peer_miss" {
		t.Errorf("forwarded request cache = %q, want peer_miss", got)
	}
	if n := tc.totalSearches(); n != 1 {
		t.Errorf("cluster ran %d searches, want 1", n)
	}
	if n := tc.svcs[ownerIdx].met.searches.Load(); n != 1 {
		t.Errorf("owner ran %d searches, want 1", n)
	}

	// The owner answers its own statement from cache.
	status, hdr, _ = postJSON(t, tc.srvs[ownerIdx].URL+"/v1/pareto", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Errorf("owner request: %d %q, want 200 hit", status, hdr.Get("X-Mapserve-Cache"))
	}

	// The second non-owner forwards and lands on the owner's cache.
	status, hdr, body2 := postJSON(t, tc.srvs[nonOwners[1]].URL+"/v1/pareto", e2ePerm)
	if status != 200 {
		t.Fatalf("second forwarded request: %d %s", status, body2)
	}
	if got := hdr.Get("X-Mapserve-Cache"); got != "peer_hit" {
		t.Errorf("second forwarded request cache = %q, want peer_hit", got)
	}
	if n := tc.totalSearches(); n != 1 {
		t.Errorf("cluster ran %d searches after three requests, want 1", n)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("identical forwarded requests returned different bodies:\n%s\n%s", body, body2)
	}

	// Both forwarded answers carry a certified, verifier-checked front
	// in their own request coordinates.
	var resp ParetoResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	checkFrontInvariants(t, &resp)
	certifyResponse(t, e2ePerm, &resp)
}

// TestPeerParetoFillRevalidation: a pushed front is re-certified
// before it enters the receiver's cache — a valid push is stored and
// served, a doctored vector is rejected.
func TestPeerParetoFillRevalidation(t *testing.T) {
	tc := newTestCluster(t, 2)
	svc := tc.svcs[1]

	var req ParetoRequest
	if err := json.Unmarshal([]byte(e2eBody), &req); err != nil {
		t.Fatal(err)
	}
	algo, dims, _, err := validateParetoRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.FindPareto(Canonicalize(algo).Algo, dims, &schedule.ParetoOptions{
		Space: schedule.SpaceOptions{Schedule: schedule.Options{Workers: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	p := new(problem[ParetoRequest])
	*p = paretoWorkload.newProblem(&req, algo, dims, 0)
	fill, err := svc.PeerFill(context.Background(), paretoWorkload.fillRequest(p, res))
	if err != nil {
		t.Fatalf("valid fill rejected: %v", err)
	}
	if !fill.Stored {
		t.Error("valid fill not stored")
	}
	status, hdr, _ := postJSON(t, tc.srvs[1].URL+"/v1/pareto", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Errorf("filled front not served from cache: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if n := svc.met.searches.Load(); n != 0 {
		t.Errorf("receiver searched %d times despite the fill", n)
	}

	// A doctored objective vector must not survive revalidation.
	doctored := wireFromPareto(res)
	doctored.Members[0].Vector[2]++
	freq := paretoWorkload.fillRequest(p, res)
	freq.Result = mustJSON(doctored)
	svc.FlushCache()
	if _, err := svc.PeerFill(context.Background(), freq); err == nil {
		t.Error("doctored fill accepted")
	}
	if n := svc.met.fills[fillRejected].Load(); n != 1 {
		t.Errorf("peerFillsRejected = %d, want 1", n)
	}
	if _, ok := svc.cache.Get(p.key); ok {
		t.Error("doctored front entered the cache")
	}
}

// TestE2EParetoCorpusReplay: a stratified sample of the committed
// corpus replays through the endpoint — feasible instances return a
// certified front whose time-optimal head reproduces the recorded
// optimum, infeasible instances stay 422.
func TestE2EParetoCorpusReplay(t *testing.T) {
	path := filepath.Join("..", "..", "corpus", "manifest.jsonl")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("committed manifest not present: %v", err)
	}
	_, insts, err := corpus.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 2})

	for _, inst := range corpus.Sample(insts, 10, 3) {
		req := ParetoRequest{
			Bounds:       inst.Bounds,
			Dependencies: inst.Dependencies,
			Dims:         inst.Dims,
			MaxEntry:     inst.MaxEntry,
			MaxCost:      inst.MaxCost,
		}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		status, _, out := postJSON(t, srv.URL+"/v1/pareto", string(body))
		if !inst.Feasible {
			if status != http.StatusUnprocessableEntity {
				t.Errorf("%s: infeasible instance answered %d (%s)", inst.ID, status, out)
			}
			continue
		}
		if status != 200 {
			t.Errorf("%s: status %d (%s)", inst.ID, status, out)
			continue
		}
		var resp ParetoResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		checkFrontInvariants(t, &resp)
		certifyResponse(t, string(body), &resp)
		if resp.Front[0].TotalTime != inst.TotalTime {
			t.Errorf("%s: pareto min-time member at %d, manifest recorded %d", inst.ID, resp.Front[0].TotalTime, inst.TotalTime)
		}
	}
}
