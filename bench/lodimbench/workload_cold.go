package main

import (
	"fmt"
	"net/http"
	"time"
)

// warmPass is the pass number of the untimed warm-up pass, kept apart
// from the timed passes 0, 1, 2, ….
const warmPass = 1 << 20

// coldPass builds one pass of cold-map: every distinct problem once, in
// a seeded order, each stated under its own random axis permutation.
func coldPass(probs []*problem, seed int64, pass int) []*request {
	r := newRand(seed, tagColdOrder, uint64(pass))
	reqs := make([]*request, len(probs))
	for i, j := range r.Perm(len(probs)) {
		reqs[i] = newMapRequest(probs[j], permuted(probs[j].inst, r))
	}
	return reqs
}

// coldMap is the "new problem" path: closed-loop POST /v1/map over the
// whole distinct set on a node rebuilt for every pass, so every request
// is a genuine miss.
type coldMap struct {
	b     *bench
	probs []*problem
	log   *accessLog
}

func prepareColdMap(b *bench, probs []*problem, log *accessLog) (runner, error) {
	return &coldMap{b: b, probs: probs, log: log}, nil
}

// warm runs one untimed pass on a throwaway node, which warms the
// process: heap, connections, and the code paths of every family.
func (w *coldMap) warm() error {
	_, err := w.pass(warmPass, newOracle())
	return err
}

// pass runs one pass over the distinct set against a fresh node.
func (w *coldMap) pass(p int, or *oracle) (*passResult, error) {
	reqs := coldPass(w.probs, w.b.opts.seed, p)
	nodes, err := startNodes(1, nodeConfig(0, w.log))
	if err != nil {
		return nil, err
	}
	defer func() {
		stopNodes(nodes)
		w.b.client.CloseIdleConnections()
	}()
	base := nodes[0].url
	t := closedLoop(w.b.client, 0, len(reqs), time.Time{}, w.b.traced, func(s *sender, i int) (reply, string) {
		r := reqs[i]
		rep, body := s.post(base+r.path, r.body)
		if rep.err == nil {
			rep.wrong = or.check(r, rep.status, body)
		}
		return rep, "map"
	})
	return finishPass(w.b.client, nodes, t, p == warmPass)
}

func (w *coldMap) measure(d time.Duration) (*measurement, error) {
	return measurePasses(w.b, d, w.pass)
}

func (w *coldMap) close() {}

// passResult is one pass's tally with the counter deltas of its nodes.
type passResult struct {
	t        *tally
	counters counters
	scrapeMS float64
}

// finishPass scrapes the pass's node — its counters started at zero, so
// the scrape is the pass's delta — and fails a warm-up pass that met an
// error or a wrong answer.
func finishPass(c *http.Client, nodes []*node, t *tally, warm bool) (*passResult, error) {
	if warm && t.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", t.failed, t.attempted, t.complaints)
	}
	start := time.Now()
	m, err := scrapeAll(c, nodes)
	if err != nil {
		return nil, err
	}
	return &passResult{t: t, counters: m, scrapeMS: ms(time.Since(start)) / float64(len(nodes))}, nil
}

// measurePasses runs whole passes until d has elapsed inside the timed
// passes. Each pass is one window: every problem weighs the same in it
// whatever order the seed gives. Node start and stop between passes are
// not timed, nor is the garbage collection that follows each pass.
func measurePasses(b *bench, d time.Duration, pass func(p int, or *oracle) (*passResult, error)) (*measurement, error) {
	m := newMeasurement(b.ref)
	for p := 0; m.all.elapsed < d; p++ {
		pr, err := pass(p, m.oracle)
		if err != nil {
			return nil, err
		}
		m.addLatency(pr.t)
		m.addCapacity(pr.t)
		m.addCycle(pr.t)
		m.counters.addAll(pr.counters)
		m.scrapeMS = append(m.scrapeMS, pr.scrapeMS)
	}
	return m, nil
}
