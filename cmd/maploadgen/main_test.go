package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"io"
	scenarios "lodim/internal/corpus"
	"sort"
	"testing"
	"time"
)

func TestParseFlagsValidation(t *testing.T) {
	bad := [][]string{
		{},                                       // neither -targets nor -inproc
		{"-targets", "http://x", "-inproc", "2"}, // both
		{"-inproc", "0"},
		{"-inproc", "17"},
		{"-inproc", "2", "-n", "0"},
		{"-inproc", "2", "-problems", "0"},
		{"-inproc", "2", "-concurrency", "0"},
		{"-inproc", "2", "-dims", "3"},
		{"-inproc", "2", "-rps", "-1"},
		{"-inproc", "2", "-max-retries", "-1"},
		{"-inproc", "2", "-tenants", "-1"},
		{"-inproc", "2", "junk"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("accepted %v", args)
		}
	}

	cfg, err := parseFlags([]string{"-targets", "http://a/, http://b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.targets) != 2 || cfg.targets[0] != "http://a" || cfg.targets[1] != "http://b" {
		t.Errorf("targets = %v", cfg.targets)
	}
}

// TestCorpusDeterministicAndPermuted: one seed gives one corpus, and
// every request is a permutation of a base problem — same multiset of
// bounds, same dependency count.
func TestCorpusDeterministicAndPermuted(t *testing.T) {
	cfg := &config{n: 100, problems: 8, seed: 7, dims: 1}
	a, b := corpus(cfg), corpus(cfg)
	if len(a) != 100 {
		t.Fatalf("corpus size %d", len(a))
	}
	for i := range a {
		if len(a[i].Bounds) != 3 || len(a[i].Dependencies) < 3 {
			t.Fatalf("degenerate problem %d: %+v", i, a[i])
		}
		if !sameProblem(a[i], b[i]) {
			t.Fatalf("corpus not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Distinct seeds must differ somewhere.
	c := corpus(&config{n: 100, problems: 8, seed: 8, dims: 1})
	same := true
	for i := range a {
		if !sameProblem(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("two seeds produced identical corpora")
	}
}

func sameProblem(x, y problem) bool {
	if len(x.Bounds) != len(y.Bounds) || len(x.Dependencies) != len(y.Dependencies) {
		return false
	}
	for i := range x.Bounds {
		if x.Bounds[i] != y.Bounds[i] {
			return false
		}
	}
	for i := range x.Dependencies {
		for j := range x.Dependencies[i] {
			if x.Dependencies[i][j] != y.Dependencies[i][j] {
				return false
			}
		}
	}
	return true
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sort.Float64s(vals)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 9}, {0.99, 9}, {1.0, 10}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("p%.0f = %g, want %g", c.q*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
}

// TestRunInprocCluster drives a real 2-node in-process cluster with a
// small permuted corpus: every request succeeds, duplicates hit caches
// rather than searching, and the SLO verdicts land in the report.
func TestRunInprocCluster(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-inproc", "2", "-n", "60", "-problems", "4",
		"-concurrency", "4", "-seed", "3", "-timeout", "30s",
		"-slo-error-rate", "0", "-slo-hit-ratio", "0.5",
		"-tenants", "3", "-cluster-status",
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, pass, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 60 || rep.Errors != 0 {
		t.Fatalf("ok/errors = %d/%d, want 60/0 (%+v)", rep.OK, rep.Errors, rep.ByStatus)
	}
	// 4 distinct problems; everything beyond the first statement of
	// each must come from a cache somewhere in the cluster. Allow twice
	// the corpus for races where both nodes search one problem.
	searches := rep.Cache["miss"] + rep.Cache["peer_miss"]
	if searches > 2*cfg.problems {
		t.Errorf("searches = %d for %d problems (%+v)", searches, cfg.problems, rep.Cache)
	}
	if got := rep.Ratios["aggregate_hit"]; got < 0.5 {
		t.Errorf("aggregate hit ratio %.3f < 0.5 (%+v)", got, rep.Cache)
	}
	if !pass {
		t.Errorf("SLOs failed: %+v", rep.SLOs)
	}
	if len(rep.SLOs) != 2 {
		t.Errorf("slo verdicts = %+v, want error_rate and hit_ratio", rep.SLOs)
	}
	if rep.LatencyMS["p99"] <= 0 || rep.WallSecs <= 0 {
		t.Errorf("degenerate timing: %+v %v", rep.LatencyMS, rep.WallSecs)
	}
	// The server-side fleet view was polled and merged: both nodes
	// healthy, and the three synthetic tenants each accounted. The last
	// few requests may still be mid-accounting when the final status
	// sample lands, so bound the total loosely from below.
	if rep.Server == nil {
		t.Fatal("-cluster-status set but the report has no server view")
	}
	fleet := rep.Server.Fleet
	if fleet.Status != "ok" || fleet.Nodes != 2 || fleet.Healthy != 2 || fleet.Unreachable != 0 {
		t.Errorf("fleet = %+v, want 2 healthy nodes", fleet)
	}
	if rep.Server.Polls < 1 {
		t.Error("cluster status never polled")
	}
	var tenantTotal int64
	seen := map[string]bool{}
	for _, tu := range fleet.Tenants {
		tenantTotal += tu.Requests
		seen[tu.Tenant] = true
	}
	if len(seen) != 3 || !seen["tenant-000"] || !seen["tenant-001"] || !seen["tenant-002"] {
		t.Errorf("fleet tenants = %+v, want tenant-000..002", fleet.Tenants)
	}
	if tenantTotal < 50 {
		t.Errorf("fleet tenant requests sum to %d, want ≈ 60", tenantTotal)
	}
	if time.Since(start) > 60*time.Second {
		t.Errorf("load test took %v", time.Since(start))
	}
}

// TestRunWithManifestCorpus: a corpus-driven run against an in-process
// cluster reports per-family request counts and hit ratios. Repeats of
// each base instance (in permuted axis orders) must land in caches, so
// every family's hit ratio is strictly positive.
func TestRunWithManifestCorpus(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")
	meta, insts, err := scenarios.Generate(context.Background(), 11, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenarios.Write(f, meta, insts); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg, err := parseFlags([]string{
		"-inproc", "2", "-n", "120", "-corpus", manifest,
		"-concurrency", "4", "-seed", "5", "-slo-error-rate", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, pass, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !pass || rep.Errors != 0 {
		t.Fatalf("corpus run failed: errors=%d slos=%+v statuses=%v", rep.Errors, rep.SLOs, rep.ByStatus)
	}
	if len(rep.Families) == 0 {
		t.Fatal("corpus-driven report has no family breakdown")
	}
	total := 0
	for fam, fs := range rep.Families {
		total += fs.Requests
		if fs.OK != fs.Requests {
			t.Errorf("family %s: ok %d of %d requests", fam, fs.OK, fs.Requests)
		}
		// Every feasible base repeats many times across 120 requests,
		// so each family must see cache hits.
		if fs.HitRatio <= 0 {
			t.Errorf("family %s: hit ratio %.3f, want > 0 (%+v)", fam, fs.HitRatio, fs)
		}
	}
	if total != 120 {
		t.Errorf("family requests sum to %d, want 120", total)
	}

	// The manifest corpus is deterministic for a seed.
	p1, f1, err := manifestCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, f2, err := manifestCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if !sameProblem(p1[i], p2[i]) || f1[i] != f2[i] {
			t.Fatalf("manifest corpus not deterministic at %d", i)
		}
	}
}

// TestOpenLoopChargesStalls: against a deliberately slow handler, the
// -rps open loop keeps issuing on schedule — every request is sent, the
// backlog builds up and is reported — and each latency runs from the
// request's due time, so requests queued behind the slow ones report
// far more than one handler time.
func TestOpenLoopChargesStalls(t *testing.T) {
	const slow = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(slow)
		w.Header().Set("X-Mapserve-Cache", "miss")
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	// One worker against a 20 ms handler at 200 req/s: request i is due
	// at 5i ms but cannot start before 20i ms.
	cfg := &config{targets: []string{srv.URL}, n: 12, problems: 4, dims: 1, seed: 1,
		rps: 200, concurrency: 1, timeout: 5 * time.Second, sloErrorRate: -1, sloHitRatio: -1}
	rep, _, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != cfg.n {
		t.Fatalf("%d of %d requests answered OK: %v", rep.OK, cfg.n, rep.ByStatus)
	}
	if rep.Backlog < 4 {
		t.Errorf("backlog max %d, want ≥ 4 requests queued behind the slow handler", rep.Backlog)
	}
	// The last request is due at 55 ms and answered after ≥ 240 ms.
	if max := rep.LatencyMS["max"]; max < 150 {
		t.Errorf("max latency %.1f ms, want ≥ 150 ms: latency must run from the due time", max)
	}
}
