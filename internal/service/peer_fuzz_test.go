package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lodim/internal/cluster"
)

// FuzzPeerBodies drives arbitrary lookup and fill bodies through the
// peer handlers of a one-node cluster. Decoding, key recomputation and
// certification must never panic, and a fill that is accepted must
// leave a cache entry that certifies again.
func FuzzPeerBodies(f *testing.F) {
	seed := New(Config{Pool: 1, SearchWorkers: 1})
	defer seed.Close()
	ctx := context.Background()
	mreq := &MapRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 1}
	if _, _, err := seed.Map(ctx, mreq); err != nil {
		f.Fatal(err)
	}
	preq := &ParetoRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 1, TimeSlack: 1}
	if _, _, err := seed.Pareto(ctx, preq); err != nil {
		f.Fatal(err)
	}
	addSeeds(f, seed, mapWorkload, mreq)
	addSeeds(f, seed, paretoWorkload, preq)

	f.Fuzz(func(t *testing.T, fill bool, body []byte) {
		self := cluster.Member{ID: "self", URL: "http://127.0.0.1:1"}
		s := New(Config{Pool: 1, SearchWorkers: 1, DefaultTimeout: 200 * time.Millisecond, MaxTimeout: 200 * time.Millisecond, Cluster: &ClusterConfig{Self: self}})
		defer s.Close()
		path := cluster.LookupPath
		if fill {
			path = cluster.FillPath
		}
		rec := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		if !fill || rec.Code != http.StatusOK {
			return
		}
		var freq cluster.FillRequest
		if err := json.Unmarshal(body, &freq); err != nil {
			t.Fatalf("accepted fill does not decode: %v", err)
		}
		switch freq.Kind {
		case mapWorkload.kind:
			recertify(t, s, mapWorkload, &freq)
		case paretoWorkload.kind:
			recertify(t, s, paretoWorkload, &freq)
		default:
			t.Fatalf("fill of unknown kind %q accepted", freq.Kind)
		}
	})
}

// addSeeds adds the genuine lookup and fill bodies of one request,
// whose result the seeding service holds.
func addSeeds[Req, Res, Wire any](f *testing.F, s *Service, w *workload[Req, Res, Wire], req *Req) {
	algo, dims, err := w.validate(req)
	if err != nil {
		f.Fatal(err)
	}
	p := new(problem[Req])
	*p = w.newProblem(req, algo, dims, 0)
	v, ok := s.cache.Get(p.key)
	if !ok {
		f.Fatalf("%s seed result not cached", w.kind)
	}
	f.Add(false, []byte(mustJSON(&cluster.LookupRequest{Kind: w.kind, Key: p.key, Problem: mustJSON(w.canonical(p))})))
	f.Add(true, []byte(mustJSON(w.fillRequest(p, v.(Res)))))
}

// recertify checks that an accepted fill's cache entry certifies.
func recertify[Req, Res, Wire any](t *testing.T, s *Service, w *workload[Req, Res, Wire], freq *cluster.FillRequest) {
	p, err := w.fromPeer(freq.Key, freq.Problem)
	if err != nil {
		t.Fatalf("accepted %s fill's problem no longer decodes: %v", w.kind, err)
	}
	v, ok := s.cache.Get(p.key)
	if !ok {
		t.Fatalf("accepted %s fill left no cache entry", w.kind)
	}
	if err := w.certify(context.Background(), p.canon.Algo, v.(Res)); err != nil {
		t.Fatalf("cached %s fill fails certification: %v", w.kind, err)
	}
}
