package main

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"lodim/internal/service"
)

func TestParseTiming(t *testing.T) {
	st, ok := parseTiming("decode;dur=0.041, canonicalize;dur=0.003, search;dur=12.532,translate;dur=0.010")
	if !ok {
		t.Fatal("well-formed header reported malformed")
	}
	want := stages{stDecode: 0.041, stCanonicalize: 0.003, stSearch: 12.532, stTranslate: 0.010}
	if st != want {
		t.Fatalf("parseTiming = %v, want %v", st, want)
	}
	for _, bad := range []string{"decode", "decode;dur=x", "mystery;dur=1", "decode;desc=1"} {
		if _, ok := parseTiming(bad); ok {
			t.Errorf("parseTiming(%q) accepted a malformed entry", bad)
		}
	}
	if st, ok := parseTiming(""); !ok || st != (stages{}) {
		t.Errorf("empty header: %v, %v", st, ok)
	}
}

// TestAccessLogMatchesHeader drives a real node with the access-log
// capture installed and checks that its record carries the request's id,
// its total and the stages the timing header reports, plus encode.
func TestAccessLogMatchesHeader(t *testing.T) {
	log := &accessLog{}
	svc := service.New(service.Config{Logger: slog.New(log)})
	defer svc.Close()
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	body := []byte(`{"bounds":[4,4,4],"dependencies":[[1,0,0],[0,1,0],[0,0,1]]}`)
	resp, err := http.Post(srv.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	header, ok := parseTiming(resp.Header.Get("X-Mapserve-Timing"))
	if !ok {
		t.Fatalf("timing header %q did not parse", resp.Header.Get("X-Mapserve-Timing"))
	}
	id := resp.Header.Get("X-Mapserve-Request")
	rec, found := log.take()[id]
	if !found {
		t.Fatalf("no access-log record for request %q", id)
	}
	if rec.endpoint != "map" || rec.status != http.StatusOK || rec.totalMS <= 0 {
		t.Fatalf("record %+v", rec)
	}
	for i, name := range stageNames {
		if i == stEncode {
			if rec.stages[i] <= 0 {
				t.Errorf("access log lacks the encode stage: %v", rec.stages)
			}
			continue
		}
		if (header[i] > 0) != (rec.stages[i] > 0) {
			t.Errorf("stage %s: header %v, access log %v", name, header[i], rec.stages[i])
		}
	}
	if header[stSearch] <= 0 {
		t.Errorf("a cache miss reported no search stage: %v", header)
	}
	if rec.stages.sum() > rec.totalMS {
		t.Errorf("stages %.4f ms exceed the total %.4f ms", rec.stages.sum(), rec.totalMS)
	}
}
