package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"lodim/internal/intmat"
	"lodim/internal/service"
	"lodim/internal/verify"
)

// answer is one distinct 200 answer kept for certification after the
// timed phase: the mapping (or front) in the request's axis order and
// the problem as the request stated it.
type answer struct {
	req   *request
	s     [][]int64
	pi    []int64
	front []service.ParetoFrontMember
	bound int64
}

// oracle checks every answer against the manifest's recorded outcome
// while the load runs, and keeps the answers for the independent
// verifier until certifyAll takes them. A body identical to one already
// checked for the same repeated request needs no second parse.
type oracle struct {
	mu        sync.Mutex
	seen      map[int][]byte // tmpl → last body that passed the checks
	answers   []answer       // checked, not yet taken by certifyAll
	certified map[string]bool
}

func newOracle() *oracle { return &oracle{seen: map[int][]byte{}, certified: map[string]bool{}} }

// check judges one reply to req and returns a complaint, or "" when the
// reply is right. Infeasible problems must answer 422; feasible ones 200
// with the recorded optimum.
func (o *oracle) check(req *request, status int, body []byte) string {
	p := req.prob
	want := http.StatusOK
	if !p.feasible() && req.kind != kindVerify {
		want = http.StatusUnprocessableEntity
	}
	if status != want {
		return fmt.Sprintf("%s %s: HTTP %d, want %d: %s", req.path, p.inst.ID, status, want, snippet(body))
	}
	if status != http.StatusOK {
		return ""
	}
	if req.tmpl >= 0 {
		o.mu.Lock()
		prev, ok := o.seen[req.tmpl]
		o.mu.Unlock()
		if ok && bytes.Equal(prev, body) {
			return ""
		}
	}
	a, complaint := judge(req, body)
	if complaint != "" {
		return complaint
	}
	o.mu.Lock()
	o.answers = append(o.answers, a)
	if req.tmpl >= 0 {
		o.seen[req.tmpl] = append([]byte(nil), body...)
	}
	o.mu.Unlock()
	return ""
}

// judge parses a 200 body and checks it against the recorded optimum:
// total time and processor count for a mapping, the head's total time
// for a Pareto front, a valid certificate of the optimum for a verify.
func judge(req *request, body []byte) (answer, string) {
	p := req.prob
	a := answer{req: req}
	fail := func(format string, args ...any) (answer, string) {
		return a, fmt.Sprintf("%s %s: ", req.path, p.inst.ID) + fmt.Sprintf(format, args...)
	}
	n := len(req.inst.Bounds)
	switch req.kind {
	case kindMap, kindJob:
		var r service.MapResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("undecodable body: %v", err)
		}
		if r.TotalTime != p.inst.TotalTime || r.Processors != p.inst.Processors {
			return fail("total_time %d, processors %d; recorded optimum %d, %d", r.TotalTime, r.Processors, p.inst.TotalTime, p.inst.Processors)
		}
		if !shapeOK(r.S, r.Pi, p.inst.Dims, n) {
			return fail("mapping shape S %v, Π %v", r.S, r.Pi)
		}
		a.s, a.pi = r.S, r.Pi
	case kindPareto:
		var r service.ParetoResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("undecodable body: %v", err)
		}
		if len(r.Front) == 0 || !r.Certified || r.Best < 0 || r.Best >= len(r.Front) {
			return fail("front of %d members, certified %v, best %d", len(r.Front), r.Certified, r.Best)
		}
		if r.Front[0].TotalTime != p.inst.TotalTime {
			return fail("front head total_time %d, recorded optimum %d", r.Front[0].TotalTime, p.inst.TotalTime)
		}
		for i, m := range r.Front {
			if m.TotalTime > r.TimeBound || !shapeOK(m.S, m.Pi, p.inst.Dims, n) {
				return fail("front member %d: total_time %d over bound %d or bad shape", i, m.TotalTime, r.TimeBound)
			}
		}
		a.front, a.bound = r.Front, r.TimeBound
	case kindVerify:
		var r service.VerifyResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("undecodable body: %v", err)
		}
		if !r.Valid || r.Certificate == nil || r.Certificate.TotalTime != p.inst.TotalTime {
			return fail("valid %v (%s) for the optimum mapping", r.Valid, r.FailedWitness)
		}
		a.s, a.pi = r.Certificate.S, r.Certificate.Pi
	}
	return a, ""
}

func shapeOK(s [][]int64, pi []int64, rows, n int) bool {
	if len(s) != rows || len(pi) != n {
		return false
	}
	for _, row := range s {
		if len(row) != n {
			return false
		}
	}
	return true
}

func snippet(body []byte) string {
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// certifyAll runs the independent verifier once per distinct answer
// kept since its last call, outside the timed windows. Answers are mapped
// into canonical coordinates first — certification is invariant under
// relabelling the axes — so the permuted restatements of one problem
// that got the same mapping are certified once over the oracle's life.
// Taking the answers at every cycle keeps the benchmark's own memory
// from growing with the requests served, which peak_rss_mb would
// otherwise count. It returns the number of certificates run and the
// complaints.
func (o *oracle) certifyAll(ctx context.Context, workers int) (int, []string) {
	o.mu.Lock()
	answers := o.answers
	o.answers = nil
	o.mu.Unlock()

	type job struct {
		a     answer
		canon *service.Canonical
		s     []*intmat.Matrix
		pi    []intmat.Vector
	}
	var jobs []job
	for _, a := range answers {
		algo, err := a.req.inst.Algorithm()
		if err != nil {
			return 0, []string{err.Error()}
		}
		j := job{a: a, canon: service.Canonicalize(algo)}
		key := j.canon.Key
		add := func(s [][]int64, pi []int64) {
			cs := j.canon.MatrixToCanonical(intmat.FromRows(s...))
			cp := j.canon.VectorToCanonical(pi)
			j.s = append(j.s, cs)
			j.pi = append(j.pi, cp)
			key += fmt.Sprintf("|%v%v", cs, cp)
		}
		if a.front != nil {
			key += fmt.Sprintf("|front≤%d", a.bound)
			for _, m := range a.front {
				add(m.S, m.Pi)
			}
		} else {
			add(a.s, a.pi)
		}
		if !o.certified[key] {
			o.certified[key] = true
			jobs = append(jobs, j)
		}
	}

	var mu sync.Mutex
	var complaints []string
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				if c := certifyOne(ctx, j.a, j.canon, j.s, j.pi); c != "" {
					mu.Lock()
					complaints = append(complaints, c)
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return len(jobs), complaints
}

// certifyOne certifies one canonical answer: a mapping must be valid,
// conflict-free and meet the recorded optimum; a front must pass the
// Pareto verifier (optimality analysis skipped, as slack members are
// deliberately above the optimum time).
func certifyOne(ctx context.Context, a answer, canon *service.Canonical, s []*intmat.Matrix, pi []intmat.Vector) string {
	p := a.req.prob
	if a.front != nil {
		inputs := make([]verify.ParetoInput, len(a.front))
		for i, m := range a.front {
			inputs[i] = verify.ParetoInput{S: s[i], Pi: pi[i], Vector: [verify.ParetoAxes]int64{m.TotalTime, m.Processors, m.Buffers, m.Links}}
		}
		cert, err := verify.CertifyPareto(ctx, canon.Algo, inputs, a.bound, &verify.Options{SkipOptimality: true})
		if err != nil {
			return fmt.Sprintf("certify front of %s: %v", p.inst.ID, err)
		}
		if !cert.Valid {
			return fmt.Sprintf("front of %s rejected: member %d %s: %s", p.inst.ID, cert.FailedMember, cert.FailedWitness, cert.FailedDetail)
		}
		return ""
	}
	cert, err := verify.CertifyContext(ctx, canon.Algo, s[0], pi[0], nil)
	if err != nil {
		return fmt.Sprintf("certify %s: %v", p.inst.ID, err)
	}
	if !cert.Valid {
		return fmt.Sprintf("mapping of %s rejected: %s: %s", p.inst.ID, cert.FailedWitness, cert.FailedDetail)
	}
	if cert.TotalTime != p.inst.TotalTime {
		return fmt.Sprintf("mapping of %s certifies total time %d, recorded optimum %d", p.inst.ID, cert.TotalTime, p.inst.TotalTime)
	}
	return ""
}
