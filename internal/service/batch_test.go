package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestE2EBatch: a batch mixing permuted duplicates and one invalid item
// answers per item — the duplicates share one search, the bad item
// fails alone without failing the batch.
func TestE2EBatch(t *testing.T) {
	svc, srv := newTestServer(t, Config{Pool: 2, SearchWorkers: 1})

	body := fmt.Sprintf(`{"items":[%s,%s,{"algorithm":"nope"}]}`, e2eBody, e2ePerm)
	status, _, raw := postJSON(t, srv.URL+"/v1/batch", body)
	if status != 200 {
		t.Fatalf("batch: %d (%s)", status, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(resp.Items))
	}
	if resp.OK != 2 || resp.Failed != 1 {
		t.Errorf("ok/failed = %d/%d, want 2/1", resp.OK, resp.Failed)
	}
	for i, item := range resp.Items {
		if item.Index != i {
			t.Errorf("item %d carries index %d", i, item.Index)
		}
	}
	for _, i := range []int{0, 1} {
		item := resp.Items[i]
		if item.Status != 200 || item.Response == nil || item.Error != "" {
			t.Errorf("item %d: %+v, want a 200 with a response", i, item)
		}
	}
	bad := resp.Items[2]
	if bad.Status != http.StatusBadRequest || bad.Response != nil || bad.Error == "" {
		t.Errorf("invalid item: %+v, want a 400 with an error", bad)
	}
	// The two valid items are one canonical problem: exactly one search.
	if n := svc.met.searches.Load(); n != 1 {
		t.Errorf("searches = %d, want 1 (permuted duplicates must dedup)", n)
	}
	// Both rendered responses agree on the canonical key and figures.
	a, b := resp.Items[0].Response, resp.Items[1].Response
	if a.CanonicalKey != b.CanonicalKey || a.TotalTime != b.TotalTime {
		t.Errorf("duplicate items disagree: %+v vs %+v", a, b)
	}
	if n := svc.met.requestCounter("batch").Load(); n != 1 {
		t.Errorf("batch request counter = %d, want 1", n)
	}
}

// TestE2EBatchLimits: an empty batch and an oversized batch are refused
// whole with 400.
func TestE2EBatchLimits(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: 1})

	status, _, raw := postJSON(t, srv.URL+"/v1/batch", `{"items":[]}`)
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400 (%s)", status, raw)
	}

	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"bounds":[2,2,2],"dependencies":[[1,0,0],[0,1,0],[0,0,1]],"dims":1}`)
	}
	sb.WriteString(`]}`)
	status, _, raw = postJSON(t, srv.URL+"/v1/batch", sb.String())
	if status != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400 (%s)", status, raw)
	}
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "limit") {
		t.Errorf("oversized batch error body: %s", raw)
	}
}

// TestRetryAfterHeaders: the backpressure statuses carry Retry-After so
// clients can pace resubmission, and other errors do not.
func TestRetryAfterHeaders(t *testing.T) {
	svc := New(Config{Pool: 1})
	t.Cleanup(func() { svc.Close() })

	cases := []struct {
		err    error
		status int
		after  time.Duration
	}{
		{ErrOverloaded, http.StatusTooManyRequests, time.Second},
		{ErrShuttingDown, http.StatusServiceUnavailable, 2 * time.Second},
		{badRequest("nope"), http.StatusBadRequest, 0},
	}
	for _, c := range cases {
		status, after := svc.classifyError(c.err)
		if status != c.status || after != c.after {
			t.Errorf("classifyError(%v) = (%d, %v), want (%d, %v)", c.err, status, after, c.status, c.after)
		}
	}

	rec := httptest.NewRecorder()
	svc.writeError(rec, ErrOverloaded)
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After header = %q, want \"1\"", got)
	}
	rec = httptest.NewRecorder()
	svc.writeError(rec, badRequest("nope"))
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("Retry-After on 400 = %q, want unset", got)
	}
}

// TestRetryAfterSubSecondPrecision: the two renderings of one pacing
// hint never disagree in a harmful direction. The header's
// whole-second grammar rounds up — a sub-second hint must not become
// "0", an immediate-retry invitation — while batch items carry the
// exact millisecond value, neither truncated nor inflated.
func TestRetryAfterSubSecondPrecision(t *testing.T) {
	cases := []struct {
		d      time.Duration
		header string
		ms     int64
	}{
		{250 * time.Millisecond, "1", 250},
		{999 * time.Millisecond, "1", 999},
		{time.Second, "1", 1000},
		{1001 * time.Millisecond, "2", 1001},
		{1500 * time.Millisecond, "2", 1500},
		{2 * time.Second, "2", 2000},
	}
	for _, c := range cases {
		if got := retryAfterHeader(c.d); got != c.header {
			t.Errorf("retryAfterHeader(%v) = %q, want %q", c.d, got, c.header)
		}
		if got := c.d.Milliseconds(); got != c.ms {
			t.Errorf("%v.Milliseconds() = %d, want %d", c.d, got, c.ms)
		}
	}
}

// TestBatchRetryAfterMillisecondField: a backpressured batch item
// reports its pacing hint in milliseconds, matching classifyError's
// duration exactly.
func TestBatchRetryAfterMillisecondField(t *testing.T) {
	svc := New(Config{Pool: 1})
	t.Cleanup(func() { svc.Close() })
	_, after := svc.classifyError(ErrOverloaded)
	if got := after.Milliseconds(); got != 1000 {
		t.Fatalf("overload hint = %dms, want 1000", got)
	}
}

// TestBatchDuplicatesDeterministic: a batch holding two axis
// permutations of one problem answers with the same body every time,
// on a cold node too: the duplicates are collapsed before they run, so
// both items report the one search's disposition instead of the second
// reading "shared" or "hit" by a race. A second pair, whose search
// fails on an int64 overflow, shares its 422 and disposition the same
// way. Durations are the only fields left to vary.
func TestBatchDuplicatesDeterministic(t *testing.T) {
	const huge = `{"bounds":[3,3],"dependencies":[[0,1],[1,-4611686018427387904]],"dims":1}`
	const hugePerm = `{"bounds":[3,3],"dependencies":[[1,0],[-4611686018427387904,1]],"dims":1}`
	var items []MapRequest
	if err := json.Unmarshal([]byte("["+e2eBody+","+e2ePerm+","+huge+","+hugePerm+"]"), &items); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusOK, http.StatusOK, http.StatusUnprocessableEntity, http.StatusUnprocessableEntity}
	var want []byte
	for run := range 50 {
		svc := New(Config{Pool: 2, SearchWorkers: 1})
		resp, err := svc.Batch(context.Background(), &BatchRequest{Items: items})
		svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := svc.met.searches.Load(); n != 2 {
			t.Fatalf("run %d: %d searches, want 2", run, n)
		}
		resp.DurationMS = 0
		for i := range resp.Items {
			if got := resp.Items[i]; got.Cache != CacheMiss || got.Status != wantStatus[i] {
				t.Fatalf("run %d: item %d reads status %d, cache %q; want %d, %q", run, i, got.Status, got.Cache, wantStatus[i], CacheMiss)
			}
			resp.Items[i].DurationMS = 0
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = body
		} else if string(body) != string(want) {
			t.Fatalf("run %d answered\n%s\nwant\n%s", run, body, want)
		}
	}
}
