package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/uda"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func postJSON(t *testing.T, url string, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// A small asymmetric instance and its axis-permuted restatement under
// σ = (2,0,1): new axis i is old axis σ[i].
const (
	e2eBody = `{"bounds":[2,3,4],"dependencies":[[1,0,0],[1,1,0],[0,1,1]],"dims":1}`
	e2ePerm = `{"bounds":[4,2,3],"dependencies":[[0,1,0],[0,1,1],[1,0,1]],"dims":1}`
)

// TestE2ESingleflight: two concurrent identical /v1/map requests run
// exactly one search; one answer is the miss, the other is shared, and
// the bodies are byte-identical.
func TestE2ESingleflight(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 1})
	real := svc.searchJoint
	gate := make(chan struct{})
	svc.searchJoint = func(ctx context.Context, algo *uda.Algorithm, dims int, opts *schedule.SpaceOptions) (*schedule.JointResult, error) {
		<-gate
		return real(ctx, algo, dims, opts)
	}

	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, 2)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		status, hdr, body := postJSON(t, srv.URL+"/v1/map", e2eBody)
		replies <- reply{status, hdr.Get("X-Mapserve-Cache"), body}
	}
	wg.Add(1)
	go post()
	// First request must hold the flight before the second arrives.
	waitCounter(t, &svc.met.searches, 1)
	wg.Add(1)
	go post()
	// Second request must have joined the flight before it resolves.
	waitCounter(t, &svc.met.deduped, 1)
	close(gate)
	wg.Wait()
	close(replies)

	var got []reply
	for r := range replies {
		got = append(got, r)
	}
	if got[0].status != 200 || got[1].status != 200 {
		t.Fatalf("statuses: %d, %d (%s / %s)", got[0].status, got[1].status, got[0].body, got[1].body)
	}
	if n := svc.met.searches.Load(); n != 1 {
		t.Errorf("searches = %d, want exactly 1", n)
	}
	caches := []string{got[0].cache, got[1].cache}
	if !(caches[0] == "miss" && caches[1] == "shared") && !(caches[0] == "shared" && caches[1] == "miss") {
		t.Errorf("cache headers = %v, want one miss and one shared", caches)
	}
	if !bytes.Equal(got[0].body, got[1].body) {
		t.Errorf("shared and miss bodies differ:\n%s\n%s", got[0].body, got[1].body)
	}
}

// TestE2EPermutedVariantHitsCache: an axis-permuted restatement of a
// cached problem is a cache hit, its body is byte-identical to a fresh
// search of the same restatement, and the returned mapping is valid and
// conflict-free in the restated coordinates.
func TestE2EPermutedVariantHitsCache(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 1})

	status, hdr, body := postJSON(t, srv.URL+"/v1/map", e2eBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "miss" {
		t.Fatalf("cold request: %d %q %s", status, hdr.Get("X-Mapserve-Cache"), body)
	}
	status, hdr, permBody := postJSON(t, srv.URL+"/v1/map", e2ePerm)
	if status != 200 {
		t.Fatalf("permuted request: %d %s", status, permBody)
	}
	if hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("permuted request cache = %q, want hit", hdr.Get("X-Mapserve-Cache"))
	}
	if n := svc.met.searches.Load(); n != 1 {
		t.Errorf("searches = %d, want 1 (the permuted variant must reuse it)", n)
	}

	// The cached answer must be indistinguishable from a fresh search.
	svc.FlushCache()
	status, hdr, fresh := postJSON(t, srv.URL+"/v1/map", e2ePerm)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "miss" {
		t.Fatalf("fresh permuted search: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if !bytes.Equal(permBody, fresh) {
		t.Errorf("cached and fresh bodies differ:\n%s\n%s", permBody, fresh)
	}

	// Decode and revalidate the mapping against the *request* axes.
	var out MapResponse
	if err := json.Unmarshal(permBody, &out); err != nil {
		t.Fatal(err)
	}
	var req MapRequest
	if err := json.Unmarshal([]byte(e2ePerm), &req); err != nil {
		t.Fatal(err)
	}
	algo, err := algoFromRequest("", nil, req.Bounds, req.Dependencies)
	if err != nil {
		t.Fatal(err)
	}
	m, err := schedule.NewMapping(algo, intmat.FromRows(out.S...), intmat.Vector(out.Pi))
	if err != nil {
		t.Fatalf("returned mapping invalid in request coordinates: %v", err)
	}
	cr, err := m.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !cr.ConflictFree {
		t.Errorf("returned mapping has conflicts: %v", cr)
	}
	if m.TotalTime() != out.TotalTime {
		t.Errorf("total time %d inconsistent with Π (%d)", out.TotalTime, m.TotalTime())
	}

	// Both orientations of one problem share every invariant figure.
	var orig MapResponse
	status, _, body2 := postJSON(t, srv.URL+"/v1/map", e2eBody)
	if status != 200 {
		t.Fatalf("re-request: %d", status)
	}
	if err := json.Unmarshal(body2, &orig); err != nil {
		t.Fatal(err)
	}
	if orig.TotalTime != out.TotalTime || orig.Processors != out.Processors ||
		orig.WireLength != out.WireLength || orig.Cost != out.Cost {
		t.Errorf("invariants differ across the permutation: %+v vs %+v", orig, out)
	}
	if orig.CanonicalKey != out.CanonicalKey {
		t.Errorf("canonical keys differ: %s vs %s", orig.CanonicalKey, out.CanonicalKey)
	}
}

// TestE2EDeadline: a 1ms-deadline request on a large instance returns
// promptly with 504 and leaks no goroutines. The instance is bit-level
// matmul at its default sizes, whose uncancelled joint search takes tens
// of seconds: an instance that searches in milliseconds (transitive
// closure μ = 30 takes about 3 ms) can answer 200 before a loaded
// machine fires the 1 ms deadline.
func TestE2EDeadline(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 4})
	// Warm up the HTTP client/server goroutine population first.
	if status, _, body := postJSON(t, srv.URL+"/v1/map", e2eBody); status != 200 {
		t.Fatalf("warmup: %d %s", status, body)
	}
	baseline := runtime.NumGoroutine()

	start := time.Now()
	status, _, body := postJSON(t, srv.URL+"/v1/map",
		`{"algorithm":"bit-matmul","dims":1,"timeout_ms":1}`)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("timeout body lacks the error field: %s", body)
	}
	if elapsed > 3*time.Second {
		t.Errorf("1ms-deadline request took %v", elapsed)
	}
	if got := svc.met.timeouts.Load(); got != 1 {
		t.Errorf("timeouts metric = %d, want 1", got)
	}
	// Search workers must all have unwound; allow the runtime a moment.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: baseline %d, now %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestE2EMetricsAndHealth: /metrics reports the cache traffic and the
// latency histogram; /healthz answers.
func TestE2EMetricsAndHealth(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 1})
	postJSON(t, srv.URL+"/v1/map", e2eBody)
	postJSON(t, srv.URL+"/v1/map", e2eBody) // hit

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"mapserve_cache_hits_total 1",
		"mapserve_cache_misses_total 1",
		"mapserve_searches_total 1",
		"mapserve_cache_hit_ratio 0.5",
		"mapserve_search_latency_seconds_count 1",
		`mapserve_requests_total{endpoint="map"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Errorf("healthz = %d", hr.StatusCode)
	}
}

// TestE2EConflictAndSimulate: the two auxiliary endpoints answer on the
// paper's matrix-multiplication example.
func TestE2EConflictAndSimulate(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 2})

	status, _, body := postJSON(t, srv.URL+"/v1/conflict",
		`{"bounds":[4,4,4],"s":[[1,1,-1]],"pi":[1,4,1]}`)
	if status != 200 {
		t.Fatalf("conflict: %d %s", status, body)
	}
	var cr ConflictResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.ConflictFree || cr.Method == "" {
		t.Errorf("conflict verdict = %+v, want conflict-free with a method", cr)
	}

	status, _, body = postJSON(t, srv.URL+"/v1/simulate",
		`{"algorithm":"matmul","sizes":[4],"s":[[1,1,-1]],"pi":[1,4,1]}`)
	if status != 200 {
		t.Fatalf("simulate: %d %s", status, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Computations != 125 { // (4+1)^3 index points
		t.Errorf("computations = %d, want 125", sr.Computations)
	}
	if sr.Conflicts != 0 || sr.Collisions != 0 {
		t.Errorf("conflicts/collisions = %d/%d, want 0/0", sr.Conflicts, sr.Collisions)
	}
	if sr.Cycles < 1 || sr.Processors < 1 {
		t.Errorf("degenerate run: %+v", sr)
	}
}

// TestE2EBadRequests: malformed inputs map to 400 with a JSON error.
func TestE2EBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 1})
	cases := []struct{ path, body string }{
		{"/v1/map", `{`},
		{"/v1/map", `{"unknown_field":1}`},
		{"/v1/map", `{"algorithm":"nope"}`},
		{"/v1/conflict", `{"bounds":[4,4]}`},
		{"/v1/simulate", `{"algorithm":"matmul","sizes":[4],"pi":[1]}`},
	}
	for _, c := range cases {
		status, _, body := postJSON(t, srv.URL+c.path, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.path, c.body, status, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body lacks error field: %s", c.path, body)
		}
	}
}

// waitCounter polls an atomic counter until it reaches want.
func waitCounter(t *testing.T, c interface{ Load() int64 }, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Load(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestE2EOverflowingProblemIsAnError: a dependence entry of −2⁶² makes
// Π·d̄ pass int64 inside the search. /v1/map, /v1/pareto and a batch
// item answer it with 422 and a JSON error naming the overflow — the
// search returns the overflow rather than panicking in a worker
// goroutine, which would end the process — and count no failure, since
// the input is at fault. A job for it fails with the same error.
// /v1/conflict answers a T with entries near 2⁴⁰, whose decision passes
// int64, with 422 and the decision's own message. The same server then
// answers a normal request.
func TestE2EOverflowingProblemIsAnError(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 2, Jobs: &JobsConfig{Dir: t.TempDir()}})
	const huge = `{"bounds":[3,3],"dependencies":[[0,1],[1,-4611686018427387904]],"dims":1}`
	for _, path := range []string{"/v1/map", "/v1/pareto"} {
		status, _, body := postJSON(t, srv.URL+path, huge)
		var eb struct{ Error string }
		if status != http.StatusUnprocessableEntity || json.Unmarshal(body, &eb) != nil || !strings.Contains(eb.Error, "overflow") {
			t.Errorf("%s: status %d, body %s; want 422 with a JSON error naming the overflow", path, status, body)
		}
	}
	big := int64(1) << 40
	_, want := conflict.Decide(intmat.FromRows([]int64{big, big, 3}, []int64{big, 7, 2 * big}), uda.Box(2, 2, 2))
	var oe *intmat.OverflowError
	if !errors.As(want, &oe) {
		t.Fatalf("conflict.Decide: %v, want *intmat.OverflowError", want)
	}
	status, _, body := postJSON(t, srv.URL+"/v1/conflict",
		fmt.Sprintf(`{"bounds":[2,2,2],"t":[[%d,%d,3],[%d,7,%d]]}`, big, big, big, 2*big))
	var ce struct{ Error string }
	if status != http.StatusUnprocessableEntity || json.Unmarshal(body, &ce) != nil || ce.Error != want.Error() {
		t.Errorf("/v1/conflict: status %d, body %s; want 422 with error %q", status, body, want)
	}
	status, _, body = postJSON(t, srv.URL+"/v1/batch", `{"items":[`+huge+`]}`)
	var br BatchResponse
	if status != http.StatusOK || json.Unmarshal(body, &br) != nil || len(br.Items) != 1 || br.Items[0].Status != http.StatusUnprocessableEntity {
		t.Errorf("/v1/batch: status %d, body %s; want one item answered 422", status, body)
	}
	status, _, body = postJSON(t, srv.URL+"/v1/jobs", `{"map":`+huge+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("job submit: status %d, body %s", status, body)
	}
	if jr := waitJobHTTP(t, srv.URL, decodeJobResponse(t, body).ID, jobs.StateFailed); !strings.Contains(jr.Error, "overflow") {
		t.Errorf("job error %q, want the overflow", jr.Error)
	}
	if got := svc.met.failures.Load(); got != 0 {
		t.Errorf("failures = %d after overflowing problems, want 0", got)
	}
	if status, _, body := postJSON(t, srv.URL+"/v1/map", e2eBody); status != 200 {
		t.Fatalf("a normal request after the overflow: status %d, body %s", status, body)
	}
}
