package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestClientLookupRoundTrip(t *testing.T) {
	var gotHop, gotTraceparent string
	var gotReq LookupRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != LookupPath {
			t.Errorf("peer saw %s %s", r.Method, r.URL.Path)
		}
		gotHop = r.Header.Get(HopHeader)
		gotTraceparent = r.Header.Get("Traceparent")
		if err := json.NewDecoder(r.Body).Decode(&gotReq); err != nil {
			t.Error(err)
		}
		json.NewEncoder(w).Encode(&LookupResponse{
			Disposition: DispositionMiss,
			Result:      json.RawMessage(`{"s":[[1,1,-1]],"pi":[1,4,1],"time":42,"engine":"procedure-5.1"}`),
		})
	}))
	defer srv.Close()

	m := Member{ID: "owner", URL: srv.URL}
	h := NewHealth(m)
	c := NewClient(nil, h)
	req := &LookupRequest{
		Kind:      "map",
		Key:       "k1",
		Problem:   json.RawMessage(`{"bounds":[2,3,4],"dependencies":[[1,0,0]],"dims":1}`),
		TimeoutMS: 1500,
	}
	var res struct{ Time int64 }
	resp, err := c.Lookup(context.Background(), m, req, &res, "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != DispositionMiss || res.Time != 42 {
		t.Errorf("response = %+v", resp)
	}
	if gotHop != "1" {
		t.Errorf("hop header = %q, want \"1\"", gotHop)
	}
	if gotTraceparent == "" {
		t.Error("traceparent not propagated")
	}
	if gotReq.Kind != "map" || gotReq.Key != "k1" || gotReq.TimeoutMS != 1500 || string(gotReq.Problem) != string(req.Problem) {
		t.Errorf("peer saw request %+v", gotReq)
	}
	st := h.Snapshot()
	if len(st) != 1 || !st[0].Healthy || st[0].Successes != 1 {
		t.Errorf("health after success = %+v", st)
	}
}

func TestClientLookupPeerStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"service: overloaded, retry later"}`))
	}))
	defer srv.Close()
	m := Member{ID: "owner", URL: srv.URL}
	h := NewHealth(m)
	c := NewClient(nil, h)
	_, err := c.Lookup(context.Background(), m, &LookupRequest{}, nil, "")
	var perr *PeerError
	if !errors.As(err, &perr) {
		t.Fatalf("error %v, want *PeerError", err)
	}
	if perr.Status != http.StatusTooManyRequests {
		t.Errorf("status = %d", perr.Status)
	}
	// A peer that answers — even with an error status — is reachable.
	if st := h.Snapshot(); !st[0].Healthy {
		t.Errorf("health after answered error = %+v", st)
	}
}

func TestClientLookupTransportError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	m := Member{ID: "owner", URL: srv.URL}
	srv.Close() // connection refused from here on
	h := NewHealth(m)
	c := NewClient(&http.Client{Timeout: time.Second}, h)
	_, err := c.Lookup(context.Background(), m, &LookupRequest{}, nil, "")
	var perr *PeerError
	if !errors.As(err, &perr) {
		t.Fatalf("error %v, want *PeerError", err)
	}
	if perr.Status != 0 {
		t.Errorf("transport failure carries status %d, want 0", perr.Status)
	}
	st := h.Snapshot()
	if st[0].Healthy || st[0].Failures != 1 || st[0].LastError == "" {
		t.Errorf("health after transport failure = %+v", st)
	}
}

func TestClientLookupRejectsUnknownDisposition(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&LookupResponse{Disposition: "banana"})
	}))
	defer srv.Close()
	c := NewClient(nil, nil)
	if _, err := c.Lookup(context.Background(), Member{ID: "x", URL: srv.URL}, &LookupRequest{}, nil, ""); err == nil {
		t.Fatal("unknown disposition accepted")
	}
}

func TestClientFill(t *testing.T) {
	var got FillRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != FillPath {
			t.Errorf("fill path = %s", r.URL.Path)
		}
		json.NewDecoder(r.Body).Decode(&got)
		json.NewEncoder(w).Encode(&FillResponse{Stored: true})
	}))
	defer srv.Close()
	c := NewClient(nil, nil)
	err := c.Fill(context.Background(), Member{ID: "x", URL: srv.URL}, &FillRequest{
		Kind:    "pareto",
		Key:     "k2",
		Problem: json.RawMessage(`{}`),
		Result:  json.RawMessage(`{"time":7}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != "pareto" || got.Key != "k2" || string(got.Result) != `{"time":7}` {
		t.Errorf("peer saw fill %+v", got)
	}
}

func TestHealthIgnoresUnknownPeer(t *testing.T) {
	h := NewHealth(Member{ID: "a", URL: "http://a"})
	h.ReportOK("ghost")
	h.ReportError("ghost", errors.New("x"))
	if st := h.Snapshot(); len(st) != 1 || st[0].ID != "a" {
		t.Errorf("snapshot = %+v", st)
	}
}

func TestHealthRecovers(t *testing.T) {
	h := NewHealth(Member{ID: "a", URL: "http://a"})
	h.ReportError("a", errors.New("boom"))
	if st := h.Snapshot(); st[0].Healthy {
		t.Error("still healthy after failure")
	}
	h.ReportOK("a")
	st := h.Snapshot()
	if !st[0].Healthy || st[0].LastError != "" {
		t.Errorf("did not recover: %+v", st[0])
	}
	if st[0].Successes != 1 || st[0].Failures != 1 {
		t.Errorf("counters = %+v", st[0])
	}
}
