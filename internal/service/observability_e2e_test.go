package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe log sink for Config.Logger: the
// access-log line is written after the handler returns, so the client
// can observe the response before the line lands.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// waitLines polls until the buffer holds n complete log lines.
func waitLines(t *testing.T, b *syncBuffer, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ls := b.lines(); len(ls) >= n {
			return ls
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d access-log lines, have %d", n, len(b.lines()))
		}
		time.Sleep(time.Millisecond)
	}
}

// accessLine is the JSON shape of one structured access-log record.
type accessLine struct {
	Msg      string             `json:"msg"`
	ID       string             `json:"id"`
	Endpoint string             `json:"endpoint"`
	Status   int                `json:"status"`
	Total    int64              `json:"total"`
	Cache    string             `json:"cache"`
	Stages   map[string]float64 `json:"stages"`
}

// TestE2EAccessLogAndTimingHeaders drives the three request shapes the
// access log distinguishes (map miss, map hit, conflict) and checks:
// exactly one structured line per request, each carrying the same
// request ID the client saw in X-Mapserve-Request, with per-stage
// timings in both the log line and the X-Mapserve-Timing header.
func TestE2EAccessLogAndTimingHeaders(t *testing.T) {
	var logBuf syncBuffer
	_, srv := newTestServer(t, Config{
		Pool:   2,
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})

	type probe struct {
		path, body string
		wantCache  string
	}
	probes := []probe{
		{"/v1/map", e2eBody, "miss"},
		{"/v1/map", e2eBody, "hit"},
		{"/v1/conflict", `{"bounds":[4,4,4],"s":[[1,1,-1]],"pi":[1,4,1]}`, ""},
	}
	var ids []string
	for _, p := range probes {
		status, hdr, body := postJSON(t, srv.URL+p.path, p.body)
		if status != 200 {
			t.Fatalf("%s: status %d %s", p.path, status, body)
		}
		id := hdr.Get("X-Mapserve-Request")
		if len(id) != 16 {
			t.Errorf("%s: request id = %q, want 16 hex digits", p.path, id)
		}
		ids = append(ids, id)
		timing := hdr.Get("X-Mapserve-Timing")
		if !strings.Contains(timing, "decode;dur=") {
			t.Errorf("%s: timing header %q missing decode stage", p.path, timing)
		}
		if p.wantCache == "miss" && !strings.Contains(timing, "search;dur=") {
			t.Errorf("map miss: timing header %q missing search stage", timing)
		}
		if got := hdr.Get("X-Mapserve-Cache"); got != p.wantCache {
			t.Errorf("%s: cache header = %q, want %q", p.path, got, p.wantCache)
		}
	}
	if ids[0] == ids[1] || ids[0] == ids[2] || ids[1] == ids[2] {
		t.Errorf("request ids not unique: %v", ids)
	}

	lines := waitLines(t, &logBuf, len(probes))
	if len(lines) != len(probes) {
		t.Fatalf("%d access-log lines for %d requests:\n%s", len(lines), len(probes), strings.Join(lines, "\n"))
	}
	for i, line := range lines {
		var rec accessLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		p := probes[i]
		if rec.Msg != "request" || rec.Status != 200 {
			t.Errorf("line %d: msg=%q status=%d, want request/200", i, rec.Msg, rec.Status)
		}
		if rec.ID != ids[i] {
			t.Errorf("line %d: id %q does not match X-Mapserve-Request %q", i, rec.ID, ids[i])
		}
		if want := strings.TrimPrefix(p.path, "/v1/"); rec.Endpoint != want {
			t.Errorf("line %d: endpoint = %q, want %q", i, rec.Endpoint, want)
		}
		if rec.Cache != p.wantCache {
			t.Errorf("line %d: cache = %q, want %q", i, rec.Cache, p.wantCache)
		}
		if rec.Total <= 0 {
			t.Errorf("line %d: total = %d, want > 0", i, rec.Total)
		}
		if _, ok := rec.Stages["decode_ms"]; !ok {
			t.Errorf("line %d: stages missing decode_ms: %v", i, rec.Stages)
		}
		if _, ok := rec.Stages["encode_ms"]; !ok {
			t.Errorf("line %d: stages missing encode_ms: %v", i, rec.Stages)
		}
		if p.wantCache == "miss" {
			for _, stage := range []string{"canonicalize_ms", "queue_ms", "search_ms", "translate_ms"} {
				if _, ok := rec.Stages[stage]; !ok {
					t.Errorf("map miss line: stages missing %s: %v", stage, rec.Stages)
				}
			}
		}
	}
}

// TestE2EContentTooLarge: a body over maxBodyBytes is a 413, not a 400
// — the regression this PR fixes. The request still counts exactly once
// and is not recorded as an internal failure.
func TestE2EContentTooLarge(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 1})

	huge := `{"algorithm":"` + strings.Repeat("a", maxBodyBytes+1) + `"}`
	status, _, body := postJSON(t, srv.URL+"/v1/map", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "exceeds") {
		t.Errorf("413 body = %s (err %v), want an 'exceeds' error message", body, err)
	}
	if got := svc.met.requestCounter("map").Load(); got != 1 {
		t.Errorf("map counter = %d after oversized request, want 1", got)
	}
	if got := svc.met.failures.Load(); got != 0 {
		t.Errorf("failures = %d after oversized request, want 0", got)
	}
}

// TestE2ERequestCountersExactlyOnce: for every endpoint, each of the
// three request outcomes — decode error, service error, success —
// bumps the per-endpoint counter by exactly one. Before this PR the
// decode-error path double-counted nothing while service methods
// counted only their own paths, so handler-level rejects went missing.
func TestE2ERequestCountersExactlyOnce(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2})

	cases := []struct {
		endpoint string
		path     string
		steps    []struct {
			body string
			want int
		}
	}{
		{"map", "/v1/map", []struct {
			body string
			want int
		}{
			{`{`, 400},
			{`{"algorithm":"nope"}`, 400},
			{e2eBody, 200},
		}},
		{"conflict", "/v1/conflict", []struct {
			body string
			want int
		}{
			{`not json`, 400},
			{`{"bounds":[4,4]}`, 400},
			{`{"bounds":[4,4,4],"s":[[1,1,-1]],"pi":[1,4,1]}`, 200},
		}},
		{"simulate", "/v1/simulate", []struct {
			body string
			want int
		}{
			{`{"trailing":1}garbage`, 400},
			{`{"algorithm":"matmul","sizes":[4],"pi":[1]}`, 400},
			{`{"algorithm":"matmul","sizes":[4],"s":[[1,1,-1]],"pi":[1,4,1]}`, 200},
		}},
		{"verify", "/v1/verify", []struct {
			body string
			want int
		}{
			{`{"unknown_field":true}`, 400},
			{`{"pi":[1,1,1]}`, 400},
			{`{"algorithm":"matmul","sizes":[2],"s":[[1,1,-1]],"pi":[1,3,1]}`, 200},
		}},
	}
	for _, c := range cases {
		counter := svc.met.requestCounter(c.endpoint)
		for _, step := range c.steps {
			before := counter.Load()
			status, _, body := postJSON(t, srv.URL+c.path, step.body)
			if status != step.want {
				t.Errorf("%s %s: status %d (%s), want %d", c.path, step.body[:min(len(step.body), 40)], status, body, step.want)
			}
			if delta := counter.Load() - before; delta != 1 {
				t.Errorf("%s (status %d): counter delta = %d, want exactly 1", c.path, status, delta)
			}
		}
	}
}

// TestE2EMetricsExposeSearchEffort: after a real map search, the
// /metrics payload carries the per-stage histograms and the
// search-effort counters fed from SearchStats.
func TestE2EMetricsExposeSearchEffort(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 2})
	if status, _, body := postJSON(t, srv.URL+"/v1/map", e2eBody); status != 200 {
		t.Fatalf("map: %d %s", status, body)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)

	for _, want := range []string{
		`mapserve_stage_duration_seconds_bucket{stage="decode",le="+Inf"}`,
		`mapserve_stage_duration_seconds_bucket{stage="search",le="+Inf"}`,
		`mapserve_search_pruned_total{rule="orbit"}`,
		`mapserve_search_pruned_total{rule="lower_bound"}`,
		`mapserve_search_pruned_total{rule="incumbent"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	for _, counter := range []string{
		"mapserve_search_space_candidates_total",
		"mapserve_search_schedule_candidates_total",
		"mapserve_search_cost_levels_total",
		"mapserve_search_inner_searches_total",
	} {
		m := regexp.MustCompile(`(?m)^` + counter + ` (\d+)$`).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("/metrics missing %s", counter)
			continue
		}
		if v, _ := strconv.Atoi(m[1]); v < 1 {
			t.Errorf("%s = %d after a real search, want >= 1", counter, v)
		}
	}
	if !regexp.MustCompile(`(?m)^mapserve_stage_duration_seconds_count\{stage="search"\} [1-9]`).MatchString(text) {
		t.Error("search stage histogram count is zero after a real search")
	}
}
