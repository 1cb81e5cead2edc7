package service

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
	"lodim/internal/verify"
)

// A conflict-free mapping of the e2e instance (bounds [2,3,4], deps
// (1,0,0),(1,1,0),(0,1,1)): S = [0 0 1], Π = [1 3 1]. T's null space is
// spanned by (3,−1,0) and |3| > μ_1 = 2, so Theorem 2.2 certifies it.
const (
	verifyBody = `{"bounds":[2,3,4],"dependencies":[[1,0,0],[1,1,0],[0,1,1]],"s":[[0,0,1]],"pi":[1,3,1]}`
	// The same mapping under σ = (2,0,1) — new axis i is old axis σ[i] —
	// matching the e2ePerm restatement of the problem.
	verifyPermBody = `{"bounds":[4,2,3],"dependencies":[[0,1,0],[0,1,1],[1,0,1]],"s":[[1,0,0]],"pi":[1,1,3]}`
)

func verifyAlgo(t *testing.T, bounds []int64, deps [][]int64) *uda.Algorithm {
	t.Helper()
	d := intmat.New(len(bounds), len(deps))
	for c, dep := range deps {
		d.SetCol(c, dep)
	}
	algo := &uda.Algorithm{Name: "custom", Set: uda.IndexSet{Upper: bounds}, D: d}
	if err := algo.Validate(); err != nil {
		t.Fatal(err)
	}
	return algo
}

func TestVerifyEndpointE2E(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2})

	status, hdr, body := postJSON(t, srv.URL+"/v1/verify", verifyBody)
	if status != 200 {
		t.Fatalf("cold verify: %d %s", status, body)
	}
	if c := hdr.Get("X-Mapserve-Cache"); c != "miss" {
		t.Errorf("cold verify cache header = %q, want miss", c)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if !resp.Valid || resp.Certificate == nil || !resp.Certificate.Valid {
		t.Fatalf("valid mapping rejected: %s", body)
	}
	if !resp.Certificate.ConflictFree {
		t.Errorf("conflict-free mapping flagged conflicting")
	}
	if resp.Certificate.TotalTime != 16 {
		t.Errorf("total time = %d, want 16", resp.Certificate.TotalTime)
	}
	// The response certificate must check out against the request-order
	// mapping — this is what proves the canonical translation exact.
	algo := verifyAlgo(t, []int64{2, 3, 4}, [][]int64{{1, 0, 0}, {1, 1, 0}, {0, 1, 1}})
	if err := resp.Certificate.Check(algo, intmat.FromRows([]int64{0, 0, 1}), intmat.Vec(1, 3, 1)); err != nil {
		t.Errorf("response certificate fails Check: %v\n%s", err, body)
	}

	// Same request again: a certificate cache hit.
	status, hdr, body2 := postJSON(t, srv.URL+"/v1/verify", verifyBody)
	if status != 200 || hdr.Get("X-Mapserve-Cache") != "hit" {
		t.Fatalf("warm verify: %d %q", status, hdr.Get("X-Mapserve-Cache"))
	}
	if string(body) != string(body2) {
		t.Errorf("hit and miss bodies differ:\n%s\n%s", body, body2)
	}
	if hits, misses := svc.met.verifyCacheHits.Load(), svc.met.verifyCacheMisses.Load(); hits != 1 || misses != 1 {
		t.Errorf("verify cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

// TestVerifyPermutedVariantHitsCache is the service-level metamorphic
// test: an axis-permuted restatement of a certified mapping must hit
// the canonical certificate cache, and the translated certificate must
// check out against the restated coordinates.
func TestVerifyPermutedVariantHitsCache(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2})

	status, _, body := postJSON(t, srv.URL+"/v1/verify", verifyBody)
	if status != 200 {
		t.Fatalf("cold verify: %d %s", status, body)
	}
	status, hdr, permBody := postJSON(t, srv.URL+"/v1/verify", verifyPermBody)
	if status != 200 {
		t.Fatalf("permuted verify: %d %s", status, permBody)
	}
	if c := hdr.Get("X-Mapserve-Cache"); c != "hit" {
		t.Errorf("permuted variant cache header = %q, want hit", c)
	}
	if n := svc.met.verifyCacheMisses.Load(); n != 1 {
		t.Errorf("verify cache misses = %d, want 1 (one engine run for both variants)", n)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(permBody, &resp); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, permBody)
	}
	if !resp.Valid {
		t.Fatalf("permuted valid mapping rejected: %s", permBody)
	}
	algo := verifyAlgo(t, []int64{4, 2, 3}, [][]int64{{0, 1, 0}, {0, 1, 1}, {1, 0, 1}})
	if err := resp.Certificate.Check(algo, intmat.FromRows([]int64{1, 0, 0}), intmat.Vec(1, 1, 3)); err != nil {
		t.Errorf("translated certificate fails Check in permuted coordinates: %v\n%s", err, permBody)
	}
}

// TestVerifyRejectsCorruptedMapping: a deliberately broken schedule is
// answered 200 with Valid=false and the failing witness named — the
// acceptance-criteria case.
func TestVerifyRejectsCorruptedMapping(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 2})

	body := `{"algorithm":"matmul","sizes":[2],"s":[[1,1,-1]],"pi":[1,-1,1]}`
	status, _, data := postJSON(t, srv.URL+"/v1/verify", body)
	if status != 200 {
		t.Fatalf("corrupted mapping: %d %s", status, data)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if resp.Valid {
		t.Fatalf("corrupted mapping accepted: %s", data)
	}
	if resp.FailedWitness != verify.WitnessSchedule {
		t.Errorf("failed witness = %q, want %q", resp.FailedWitness, verify.WitnessSchedule)
	}
	// A conflicting (but schedule-valid) mapping names the conflict
	// witness instead.
	body = `{"algorithm":"matmul","sizes":[2],"pi":[1,1,1]}`
	status, _, data = postJSON(t, srv.URL+"/v1/verify", body)
	if status != 200 {
		t.Fatalf("conflicting mapping: %d %s", status, data)
	}
	resp = VerifyResponse{}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Valid || resp.FailedWitness != verify.WitnessConflict {
		t.Errorf("conflicting mapping: valid=%v witness=%q, want %q", resp.Valid, resp.FailedWitness, verify.WitnessConflict)
	}
	if len(resp.Certificate.ConflictWitness) == 0 {
		t.Errorf("conflict rejection carries no witness vector: %s", data)
	}
}

func TestVerifyBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 1})
	cases := []string{
		`{"algorithm":"matmul","sizes":[2],"pi":[1,1]}`,               // Π too short
		`{"algorithm":"matmul","sizes":[2],"s":[[1,1]],"pi":[1,1,1]}`, // S row too short
		`{"pi":[1,1,1]}`, // no algorithm
		`{"algorithm":"matmul","sizes":[2],"pi":[1,1,1],"x":1}`, // unknown field
	}
	for _, body := range cases {
		if status, _, data := postJSON(t, srv.URL+"/v1/verify", body); status != 400 {
			t.Errorf("body %s: status %d (%s), want 400", body, status, data)
		}
	}
}

// TestVerifyConcurrent hammers the endpoint from many goroutines over a
// mixed workload — the -race gate for the certificate cache path.
func TestVerifyConcurrent(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 4})
	bodies := []string{verifyBody, verifyPermBody,
		`{"algorithm":"matmul","sizes":[2],"s":[[1,1,-1]],"pi":[1,2,1]}`,
		`{"algorithm":"matmul","sizes":[2],"pi":[1,1,1]}`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				status, _, data := postJSON(t, srv.URL+"/v1/verify", bodies[(w+i)%len(bodies)])
				if status != 200 {
					t.Errorf("concurrent verify: %d %s", status, data)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := svc.met.requestCounter("verify").Load(); got != 48 {
		t.Errorf("verify requests = %d, want 48", got)
	}
	// Three canonical classes (the permuted body shares verifyBody's): at
	// least one engine run each, and every other request resolves from
	// the cache (a few concurrent first requests may race past the
	// double-checked lookup).
	if hits, misses := svc.met.verifyCacheHits.Load(), svc.met.verifyCacheMisses.Load(); hits+misses != 48 || misses < 3 {
		t.Errorf("verify cache hits/misses = %d/%d, want 48 total with >=3 misses", hits, misses)
	}
}

// TestVerifyServiceMethodDirect exercises the Go-level method,
// including shutdown refusal.
func TestVerifyServiceMethodDirect(t *testing.T) {
	svc := New(Config{Pool: 1})
	req := &VerifyRequest{Algorithm: "matmul", Sizes: []int64{2}, S: [][]int64{{1, 1, -1}}, Pi: []int64{1, 2, 1}}
	resp, status, err := svc.VerifyMapping(context.Background(), req)
	if err != nil {
		t.Fatalf("VerifyMapping: %v", err)
	}
	if !resp.Valid || status != CacheMiss {
		t.Fatalf("valid=%v status=%q, want valid miss", resp.Valid, status)
	}
	if !strings.HasPrefix(resp.CanonicalKey, "verify|") {
		t.Errorf("canonical key %q lacks the verify| prefix", resp.CanonicalKey)
	}
	svc.Close()
	if _, _, err := svc.VerifyMapping(context.Background(), req); err != ErrShuttingDown {
		t.Errorf("after Close: err = %v, want ErrShuttingDown", err)
	}
}
