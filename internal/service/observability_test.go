package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/slo"
	"lodim/internal/trace"
)

// --- reqTimer unit tests ---------------------------------------------

func TestReqTimerEncoding(t *testing.T) {
	tm := newReqTimer("abc")
	if _, ok := tm.duration(stageDecode); ok {
		t.Error("unset stage reported as ran")
	}
	tm.record(stageDecode, 0) // 0ns stage must still register as "ran"
	if d, ok := tm.duration(stageDecode); !ok || d != 0 {
		t.Errorf("0ns stage: d=%v ok=%v", d, ok)
	}
	tm.record(stageSearch, 1500*time.Microsecond)
	tm.record(stageSearch, 500*time.Microsecond) // accumulates
	if d, ok := tm.duration(stageSearch); !ok || d != 2*time.Millisecond {
		t.Errorf("accumulated search stage = %v ok=%v, want 2ms", d, ok)
	}
	h := tm.timingHeader()
	if !strings.Contains(h, "decode;dur=0.000") || !strings.Contains(h, "search;dur=2.000") {
		t.Errorf("timing header = %q", h)
	}
	var nilTimer *reqTimer
	nilTimer.record(stageDecode, time.Second) // must not panic
	if _, ok := nilTimer.duration(stageDecode); ok {
		t.Error("nil timer reported a stage")
	}
}

// --- WritePrometheus invariants --------------------------------------

// scrapeMetrics renders the metrics and parses every sample line into
// name{labels} → value.
func scrapeMetrics(t *testing.T, m *metrics) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Strip an OpenMetrics exemplar suffix before splitting off the
		// sample value.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// histogramInvariants checks one rendered histogram family: cumulative
// non-decreasing buckets, +Inf bucket equal to _count, and a _sum
// consistent with the recorded durations.
func histogramInvariants(t *testing.T, samples map[string]float64, prefix, labels string, wantCount int64, wantSumS float64) {
	t.Helper()
	sep := ""
	if labels != "" {
		sep = ","
	}
	prev := -1.0
	for _, ub := range latencyBuckets {
		key := fmt.Sprintf("%s_bucket{%s%sle=\"%g\"}", prefix, labels, sep, ub)
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Errorf("bucket %s = %g below previous %g (cumulative le violated)", key, v, prev)
		}
		prev = v
	}
	infKey := fmt.Sprintf("%s_bucket{%s%sle=\"+Inf\"}", prefix, labels, sep)
	inf, ok := samples[infKey]
	if !ok {
		t.Fatalf("missing +Inf bucket %s", infKey)
	}
	if inf < prev {
		t.Errorf("+Inf bucket %g below last finite bucket %g", inf, prev)
	}
	countKey := prefix + "_count"
	sumKey := prefix + "_sum"
	if labels != "" {
		countKey += "{" + labels + "}"
		sumKey += "{" + labels + "}"
	}
	if got := samples[countKey]; got != float64(wantCount) {
		t.Errorf("%s = %g, want %d", countKey, got, wantCount)
	}
	if inf != float64(wantCount) {
		t.Errorf("+Inf bucket %g != count %d", inf, wantCount)
	}
	if got := samples[sumKey]; got < wantSumS-1e-9 || got > wantSumS+1e-9 {
		t.Errorf("%s = %g, want ≈ %g", sumKey, got, wantSumS)
	}
}

// TestTimingHeaderCarriesEncode: writeJSON encodes the body before it
// writes the status line, so the encode stage reaches X-Mapserve-Timing
// on successes, cache hits and errors alike — and the body is still
// exactly what an indenting json.Encoder writes.
func TestTimingHeaderCarriesEncode(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 1})
	for _, p := range []struct{ path, body string }{
		{"/v1/map", e2eBody},
		{"/v1/map", e2eBody},
		{"/v1/map", `{"bounds":[4,4,4]`},
	} {
		_, hdr, body := postJSON(t, srv.URL+p.path, p.body)
		if timing := hdr.Get("X-Mapserve-Timing"); !strings.Contains(timing, "encode;dur=") {
			t.Errorf("%s %s: timing header %q lacks the encode stage", p.path, p.body, timing)
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s %s: body is not JSON: %v", p.path, p.body, err)
		}
		json.Indent(&want, compact.Bytes(), "", "  ")
		want.WriteByte('\n')
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s %s: body is not the indented encoding:\n%s", p.path, p.body, body)
		}
	}
}

func TestWritePrometheusHistograms(t *testing.T) {
	m := &metrics{}
	durations := []time.Duration{500 * time.Microsecond, 30 * time.Millisecond, 3 * time.Second, 20 * time.Second}
	var sum time.Duration
	for _, d := range durations {
		m.observeSearch(d, "")
		m.stages[stageDecode].observe(d)
		sum += d
	}
	m.stages[stageSearch].observe(time.Millisecond)
	samples := scrapeMetrics(t, m)
	histogramInvariants(t, samples, "mapserve_search_latency_seconds", "", 4, sum.Seconds())
	histogramInvariants(t, samples, "mapserve_stage_duration_seconds", `stage="decode"`, 4, sum.Seconds())
	histogramInvariants(t, samples, "mapserve_stage_duration_seconds", `stage="search"`, 1, 0.001)
	// A 20s observation lands only in +Inf: the last finite bucket must
	// be strictly below it.
	last := samples[fmt.Sprintf("mapserve_search_latency_seconds_bucket{le=\"%g\"}", latencyBuckets[numLatencyBuckets-1])]
	if last != 3 {
		t.Errorf("last finite bucket = %g, want 3 (20s sample must spill to +Inf)", last)
	}
	// Every stage renders a family, even unobserved ones (zero series).
	for _, name := range stageNames {
		key := fmt.Sprintf("mapserve_stage_duration_seconds_count{stage=%q}", name)
		if _, ok := samples[key]; !ok {
			t.Errorf("missing per-stage histogram for %q", name)
		}
	}
}

// TestWritePrometheusExemplars: a traced search observation attaches an
// OpenMetrics exemplar to exactly its bucket line, the /debug/requests
// table (exemplars()) carries the same exemplar under the same le label,
// and the exposition still parses with the suffix present.
func TestWritePrometheusExemplars(t *testing.T) {
	m := &metrics{}
	const tid = "deadbeef00000000deadbeef00000000"
	m.observeSearch(40*time.Millisecond, tid)
	m.observeSearch(3*time.Second, "") // untraced → no exemplar
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	var exLines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, " # {") {
			exLines = append(exLines, line)
		}
	}
	if len(exLines) != 1 {
		t.Fatalf("want exactly 1 exemplar line, got %d: %q", len(exLines), exLines)
	}
	line := exLines[0]
	if !strings.HasPrefix(line, "mapserve_search_latency_seconds_bucket{") {
		t.Errorf("exemplar attached to non-bucket line %q", line)
	}
	if !strings.Contains(line, fmt.Sprintf("# {trace_id=%q} 0.040000000", tid)) {
		t.Errorf("exemplar line %q missing trace id/value", line)
	}

	exs := m.exemplars()
	if len(exs) != 1 {
		t.Fatalf("exemplars() = %+v, want 1", exs)
	}
	ex := exs[0]
	if ex.TraceID != tid {
		t.Errorf("exemplar trace id = %s, want %s", ex.TraceID, tid)
	}
	if ex.ValueMS != 40 {
		t.Errorf("exemplar value = %gms, want 40", ex.ValueMS)
	}
	if !strings.Contains(line, fmt.Sprintf("le=%q", ex.Bucket)) {
		t.Errorf("exemplar bucket %q does not match exemplar line %q", ex.Bucket, line)
	}
	scrapeMetrics(t, m) // exposition must stay parseable with the suffix
}

func TestWritePrometheusSearchStatsCounters(t *testing.T) {
	m := &metrics{}
	m.observeSearchStats(nil) // no-op, must not panic
	st := &searchStatsFixture
	m.observeSearchStats(st)
	m.observeSearchStats(st)
	samples := scrapeMetrics(t, m)
	cases := map[string]int64{
		`mapserve_search_pruned_total{rule="orbit"}`:       2 * st.PrunedOrbit,
		`mapserve_search_pruned_total{rule="lower_bound"}`: 2 * st.PrunedLowerBound,
		`mapserve_search_pruned_total{rule="incumbent"}`:   2 * st.PrunedIncumbent,
		"mapserve_search_space_candidates_total":           2 * st.SpaceCandidates,
		"mapserve_search_schedule_candidates_total":        2 * st.ScheduleCandidates,
		"mapserve_search_cost_levels_total":                2 * st.CostLevels,
		"mapserve_search_inner_searches_total":             2 * st.InnerSearches,
	}
	for key, want := range cases {
		if got := samples[key]; got != float64(want) {
			t.Errorf("%s = %g, want %d", key, got, want)
		}
	}
}

var searchStatsFixture = schedule.SearchStats{
	Engine:             "joint-6.2",
	Workers:            2,
	SpaceCandidates:    20,
	PrunedOrbit:        3,
	PrunedLowerBound:   5,
	PrunedIncumbent:    7,
	InnerSearches:      11,
	ScheduleCandidates: 400,
	CostLevels:         9,
}

var updateGolden = flag.Bool("update", false, "rewrite the golden exposition files")

// seededMetrics returns a registry with every gate on — cluster, jobs,
// two SLO objectives, two tenants, cache and trace counters, a traced
// search — and a distinct value in every counter, so a reader wired to
// the wrong counter changes the exposition.
func seededMetrics() *metrics {
	m := &metrics{clustered: true}
	for i, ep := range []string{"map", "pareto", "conflict", "simulate", "verify", "batch", "jobs", "peer_lookup", "peer_fill", "peer_status", "cluster_status"} {
		m.requestCounter(ep).Add(int64(100 + i))
	}
	for i, c := range []*atomic.Int64{
		&m.cacheHits, &m.cacheMisses, &m.verifyCacheHits, &m.verifyCacheMisses, &m.searches, &m.deduped,
		&m.rejected, &m.timeouts, &m.failures, &m.inflight, &m.queued,
		&m.forward[peerHit], &m.forward[peerMiss], &m.forward[peerShared], &m.forward[peerError],
		&m.served[peerHit], &m.served[peerMiss], &m.served[peerShared],
		&m.fills[fillSent], &m.fills[fillReceived], &m.fills[fillRejected], &m.fills[fillSendError],
		&m.jobsForwarded,
	} {
		c.Add(int64(200 + i))
	}
	m.observeSearchStats(&searchStatsFixture)
	for i, d := range []time.Duration{200 * time.Microsecond, 40 * time.Millisecond, 3 * time.Second, 30 * time.Second} {
		m.observeSearch(d, "")
		m.stages[i%numStages].observe(d)
		m.stages[stageSearch].observe(d)
	}
	m.latExemplars[2].Store(&trace.Exemplar{Bucket: "0.025", TraceID: "deadbeef00000000deadbeef00000000", ValueMS: 12.5, UnixMS: 1700000000123})
	m.cacheStats = func() (int64, int64, int64) { return 4, 2, 4096 }
	m.traceCounters = func() (int64, int64, int64) { return 5, 1, 2 }
	m.jobStats = func() jobs.Stats {
		return jobs.Stats{Submitted: 11, Deduped: 12, Rejected: 13, Done: 14, Failed: 15, Cancelled: 16, Resumed: 17, Requeued: 18, Queued: 19, Running: 20}
	}
	m.sloStats = func() slo.Snapshot {
		return slo.Snapshot{Objectives: []slo.ObjectiveSnapshot{
			{Name: "availability", Burn: []slo.WindowBurn{{Window: "1m", Burn: 6}, {Window: "5m", Burn: 5.25}}, BudgetRemaining: -4.25, Breached: true, Breaches: 3, Captures: 1},
			{Name: "latency-p99", Burn: []slo.WindowBurn{{Window: "1m", Burn: 0.5}, {Window: "5m", Burn: 0.125}}, BudgetRemaining: 0.875, Breaches: 1},
		}}
	}
	m.tenantStats = func() []cluster.TenantUsage {
		return []cluster.TenantUsage{
			{Tenant: "acme", Requests: 9, CacheHits: 4, SearchMillis: 120, QueueRejections: 1},
			{Tenant: "globex", Requests: 7, CacheHits: 3, SearchMillis: 80, QueueRejections: 2},
		}
	}
	return m
}

// TestMetricsExposition pins the whole /metrics payload, byte for byte,
// for an empty registry and for one with every gate on. Run with
// -update to rewrite the files after an intended format change.
func TestMetricsExposition(t *testing.T) {
	for _, c := range []struct {
		file string
		m    *metrics
	}{
		{"metrics_empty.txt", &metrics{}},
		{"metrics_seeded.txt", seededMetrics()},
	} {
		var buf bytes.Buffer
		c.m.WritePrometheus(&buf)
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs:\n got %q\nwant %q", c.file, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", c.file, len(gl), len(wl))
		}
	}
}
