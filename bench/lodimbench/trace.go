package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/service"
	"lodim/internal/verify"
)

// span is one traced interval, recorded by the benchmark around a call
// into a layer or around one client request. Spans of one request share
// Req, the server's X-Mapserve-Request id.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	Req     string         `json:"req,omitempty"`
	StartMS float64        `json:"start_ms"` // since the run's first span
	EndMS   float64        `json:"end_ms"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func (s *span) ms() float64 { return s.EndMS - s.StartMS }

// recorder keeps a run's spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int64, req string, start, end time.Time, attrs map[string]any) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		StartMS: ms(start.Sub(r.base)), EndMS: ms(end.Sub(r.base)), Attrs: attrs,
	})
	return id
}

// open records a span that starts now and stays open until end is
// called with its id; children can name it as their parent meanwhile.
func (r *recorder) open(name string, parent int64) int64 {
	now := time.Now()
	return r.add(name, parent, "", now, now, nil)
}

// end closes an open span now.
func (r *recorder) end(id int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndMS = ms(time.Since(r.base))
}

// timed runs fn inside a span and returns the span's id.
func (r *recorder) timed(name string, parent int64, attrs map[string]any, fn func()) int64 {
	start := time.Now()
	fn()
	return r.add(name, parent, "", start, time.Now(), attrs)
}

// byName returns the durations in ms of the spans named name.
func (r *recorder) byName(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, r.spans[i].ms())
		}
	}
	return out
}

// familySpans returns the durations of the spans named name whose family
// attribute is fam.
func (r *recorder) familySpans(name, fam string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.Attrs["family"] == fam {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as dir/spans.jsonl, one JSON object per line.
func (r *recorder) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestSpans records a traced phase's client requests as spans under
// parent, each carrying the stage durations of its access-log line
// (matched by X-Mapserve-Request). It returns the access-log sums over
// the matched requests: mean encode time, mean transport time (client
// latency minus the server's total) and the mean server time outside
// every stage.
func (r *recorder) requestSpans(parent int64, reqs []reqSpan, log map[string]accessRecord) (encodeMS, transportMS, unstagedMS, latencyMS float64) {
	var matched int
	for _, q := range reqs {
		attrs := map[string]any{"status": q.status}
		if q.cache != "" {
			attrs["cache"] = q.cache
		}
		lat := ms(q.end.Sub(q.start))
		if rec, ok := log[q.id]; ok && q.id != "" {
			for i, v := range rec.stages {
				if v != 0 {
					attrs[stageNames[i]+"_ms"] = v
				}
			}
			attrs["server_total_ms"] = rec.totalMS
			attrs["transport_ms"] = lat - rec.totalMS
			matched++
			encodeMS += rec.stages[stEncode]
			transportMS += lat - rec.totalMS
			unstagedMS += rec.totalMS - rec.stages.sum()
			latencyMS += lat
		}
		r.add(q.name, parent, q.id, q.start, q.end, attrs)
	}
	n := float64(matched)
	return ratio(encodeMS, n), ratio(transportMS, n), ratio(unstagedMS, n), ratio(latencyMS, n)
}

// replay runs the engines in process, with spans around each public
// call, over one pass of the distinct set with a single search worker —
// so every count it records repeats exactly — plus the Pareto pipeline
// and in-process Service.Map hits and misses on the hot-mix working
// set. Every outcome is checked against the manifest.
func replay(ctx context.Context, rec *recorder, probs, hot []*problem) (map[string]float64, error) {
	root := rec.open("replay", 0)
	defer rec.end(root)
	out := map[string]float64{}
	var incremental, scratch int64
	var collect, total time.Duration
	for _, p := range probs {
		algo, err := p.inst.Algorithm()
		if err != nil {
			return nil, err
		}
		var canon *service.Canonical
		rec.timed("service.Canonicalize", root, nil, func() { canon = service.Canonicalize(algo) })
		opts := &schedule.SpaceOptions{
			MaxEntry: p.inst.MaxEntry,
			Schedule: schedule.Options{MaxCost: p.inst.MaxCost, Workers: 1},
		}
		var res *schedule.JointResult
		start := time.Now()
		res, err = schedule.FindJointMappingContext(ctx, canon.Algo, p.inst.Dims, opts)
		end := time.Now()
		attrs := map[string]any{"family": p.inst.Family, "problem": p.inst.ID}
		if !p.feasible() {
			rec.add("schedule.FindJointMappingContext", root, "", start, end, attrs)
			if !errors.Is(err, schedule.ErrNoSchedule) {
				return nil, fmt.Errorf("replay %s: recorded infeasible, search answered %v", p.inst.ID, err)
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", p.inst.ID, err)
		}
		st := res.Stats
		attrs["space_candidates"] = st.SpaceCandidates
		attrs["schedule_candidates"] = st.ScheduleCandidates
		attrs["pruned_orbit"] = st.PrunedOrbit
		attrs["pruned_lower_bound"] = st.PrunedLowerBound
		attrs["pruned_incumbent"] = st.PrunedIncumbent
		attrs["inner_searches"] = st.InnerSearches
		attrs["cost_levels"] = st.CostLevels
		attrs["hnf_incremental"] = st.HNFIncremental
		attrs["hnf_from_scratch"] = st.HNFFromScratch
		attrs["collect_ms"] = ms(st.Collect)
		attrs["search_ms"] = ms(st.Search)
		rec.add("schedule.FindJointMappingContext", root, "", start, end, attrs)
		incremental += st.HNFIncremental
		scratch += st.HNFFromScratch
		collect += st.Collect
		total += st.Total
		if res.Time != p.inst.TotalTime || res.Processors != p.inst.Processors {
			return nil, fmt.Errorf("replay %s: time %d, processors %d; recorded %d, %d", p.inst.ID, res.Time, res.Processors, p.inst.TotalTime, p.inst.Processors)
		}

		var cert *verify.Certificate
		rec.timed("verify.CertifyContext", root, nil, func() {
			cert, err = verify.CertifyContext(ctx, canon.Algo, res.Mapping.S, res.Mapping.Pi, nil)
		})
		if err != nil || !cert.Valid {
			return nil, fmt.Errorf("replay %s: winner not certified: %v", p.inst.ID, err)
		}
		t := stack(res.Mapping.S, res.Mapping.Pi)
		rec.timed("intmat.HermiteNormalForm", root, nil, func() { _, err = intmat.HermiteNormalForm(t) })
		if err != nil {
			return nil, fmt.Errorf("replay %s: HNF of T: %w", p.inst.ID, err)
		}
		var dec conflict.Result
		rec.timed("conflict.Decide", root, nil, func() { dec, err = conflict.Decide(t, canon.Algo.Set) })
		if err != nil || !dec.ConflictFree {
			return nil, fmt.Errorf("replay %s: winner not conflict-free: %v", p.inst.ID, err)
		}
	}
	out["conflict.hnf_incremental_ratio"] = ratio(float64(incremental), float64(incremental+scratch))
	out["schedule.collect_share"] = ratio(float64(collect), float64(total))

	if err := replayPareto(ctx, rec, root, hot); err != nil {
		return nil, err
	}
	if err := replayService(ctx, rec, root, hot); err != nil {
		return nil, err
	}
	return out, nil
}

// stack returns T = [S; Π].
func stack(s *intmat.Matrix, pi intmat.Vector) *intmat.Matrix {
	rows := make([][]int64, 0, s.Rows()+1)
	for i := 0; i < s.Rows(); i++ {
		rows = append(rows, s.Row(i))
	}
	return intmat.FromRows(append(rows, pi)...)
}

// replayPareto runs the slack-1 Pareto search and its certification on
// the hot-mix working set.
func replayPareto(ctx context.Context, rec *recorder, root int64, hot []*problem) error {
	for _, p := range hot {
		algo, err := p.inst.Algorithm()
		if err != nil {
			return err
		}
		canon := service.Canonicalize(algo)
		opts := &schedule.ParetoOptions{
			Space:     schedule.SpaceOptions{MaxEntry: p.inst.MaxEntry, Schedule: schedule.Options{MaxCost: p.inst.MaxCost, Workers: 1}},
			TimeSlack: 1,
		}
		var res *schedule.ParetoResult
		rec.timed("schedule.FindParetoContext", root, map[string]any{"family": p.inst.Family}, func() {
			res, err = schedule.FindParetoContext(ctx, canon.Algo, p.inst.Dims, opts)
		})
		if err != nil {
			return fmt.Errorf("replay pareto %s: %w", p.inst.ID, err)
		}
		if len(res.Front) == 0 || res.Front[0].Vector[schedule.ObjTime] != p.inst.TotalTime {
			return fmt.Errorf("replay pareto %s: front head misses the recorded optimum %d", p.inst.ID, p.inst.TotalTime)
		}
		inputs := make([]verify.ParetoInput, len(res.Front))
		for i, m := range res.Front {
			inputs[i] = verify.ParetoInput{S: m.Mapping.S, Pi: m.Mapping.Pi, Vector: [verify.ParetoAxes]int64(m.Vector)}
		}
		var cert *verify.ParetoCertificate
		rec.timed("verify.CertifyPareto", root, map[string]any{"members": len(inputs)}, func() {
			cert, err = verify.CertifyPareto(ctx, canon.Algo, inputs, res.TimeBound, &verify.Options{SkipOptimality: true})
		})
		if err != nil || !cert.Valid {
			return fmt.Errorf("replay pareto %s: front not certified: %v", p.inst.ID, err)
		}
	}
	return nil
}

// serviceHits is the number of in-process cache hits timed per problem;
// a hit takes microseconds, so one sample would be mostly clock noise.
const serviceHits = 16

// replayService times in-process Service.Map on the hot-mix working
// set: one miss on an empty cache, then hits.
func replayService(ctx context.Context, rec *recorder, root int64, hot []*problem) error {
	svc := service.New(service.Config{})
	defer svc.Close()
	for _, p := range hot {
		req := mapRequest(p.inst)
		svc.FlushCache()
		var status service.CacheStatus
		var err error
		rec.timed("service.Map.miss", root, nil, func() { _, status, err = svc.Map(ctx, req) })
		if err != nil || status != service.CacheMiss {
			return fmt.Errorf("replay service %s: miss answered %q, %v", p.inst.ID, status, err)
		}
		for k := 0; k < serviceHits; k++ {
			var resp *service.MapResponse
			rec.timed("service.Map.hit", root, nil, func() { resp, status, err = svc.Map(ctx, req) })
			if err != nil || status != service.CacheHit || resp.TotalTime != p.inst.TotalTime {
				return fmt.Errorf("replay service %s: hit answered %q, %v", p.inst.ID, status, err)
			}
		}
	}
	return nil
}
