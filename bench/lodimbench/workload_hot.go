package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"lodim/internal/service"
)

// hot-mix shape. The open-loop rate is frozen at about a tenth of the
// seed commit's closed-loop capacity on this mix, so the phase measures
// latency with headroom even while the machine runs at half speed (at a
// fifth of the capacity, slow stretches queued the open loop and its
// median rose faster than the machine slowed); the closed phase measures
// that capacity. Each gets half of every cycle.
const (
	hotProblems  = 64
	hotRate      = 2500.0 // requests per second in the open phase
	hotOpenShare = 0.5
	mapShare     = 0.80
	paretoShare  = 0.15 // the rest, 5%, is /v1/verify
)

// hotSet is hot-mix's generated input: one map body and three Pareto
// bodies (one per selection mode) per problem of a working set of
// feasible problems drawn stratified by family (hotProblems of them in a
// full run), and a verify body per problem built from the node's own
// answer during warm-up.
type hotSet struct {
	probs  []*problem
	maps   []*request
	pareto []*request // problem i, mode m at i*numParetoModes+m
	verify []*request
}

func newHotSet(probs []*problem, n int, seed int64) *hotSet {
	var feasible []*problem
	for _, p := range probs {
		if p.feasible() {
			feasible = append(feasible, p)
		}
	}
	r := newRand(seed, tagHotSet)
	h := &hotSet{probs: stratify(feasible, n, r)}
	for i, p := range h.probs {
		inst := permuted(p.inst, r)
		m := newMapRequest(p, inst)
		m.tmpl = i
		h.maps = append(h.maps, m)
		for mode := 0; mode < numParetoModes; mode++ {
			pr := newParetoRequest(p, inst, mode)
			pr.tmpl = len(h.probs) + i*numParetoModes + mode
			h.pareto = append(h.pareto, pr)
		}
	}
	return h
}

// at returns request i of the mix: 80% map, 15% Pareto (the modes
// rotating with i), 5% verify, over a uniform draw of the working set.
func (h *hotSet) at(seed int64, i int) *request {
	x := mix(seed, tagHotMix, uint64(i))
	p := int(splitmix64(x) % uint64(len(h.probs)))
	switch u := unit(x); {
	case u < mapShare:
		return h.maps[p]
	case u < mapShare+paretoShare:
		return h.pareto[p*numParetoModes+i%numParetoModes]
	default:
		return h.verify[p]
	}
}

// hotMix is the hit path: one node warmed with every body, then only
// cache hits, so decode, canonicalize, LRU, translate, encode and
// net/http do all the work.
type hotMix struct {
	b     *bench
	set   *hotSet
	nodes []*node
}

func prepareHotMix(b *bench, probs []*problem, log *accessLog) (runner, error) {
	nodes, err := startNodes(1, nodeConfig(0, log))
	if err != nil {
		return nil, err
	}
	return &hotMix{b: b, set: newHotSet(probs, b.scale.hot, b.opts.seed), nodes: nodes}, nil
}

// warm sends every map and Pareto body once, builds the verify bodies
// from the map answers, and sends those once too.
func (w *hotMix) warm() error {
	base := w.nodes[0].url
	or := newOracle()
	warmReqs := append(append([]*request(nil), w.set.maps...), w.set.pareto...)
	var mu sync.Mutex
	mappings := make([]service.MapResponse, len(w.set.maps))
	t := closedLoop(w.b.client, 0, len(warmReqs), time.Time{}, false, func(s *sender, i int) (reply, string) {
		r := warmReqs[i]
		rep, body := s.post(base+r.path, r.body)
		if rep.err == nil {
			rep.wrong = or.check(r, rep.status, body)
		}
		if rep.wrong == "" && rep.status == http.StatusOK && r.kind == kindMap {
			mu.Lock()
			defer mu.Unlock()
			if err := json.Unmarshal(body, &mappings[r.tmpl]); err != nil {
				rep.wrong = err.Error()
			}
		}
		return rep, "warm"
	})
	if t.failed > 0 {
		return fmt.Errorf("hot-mix warm-up: %d of %d requests failed: %v", t.failed, t.attempted, t.complaints)
	}
	for i, p := range w.set.probs {
		v := newVerifyRequest(p, w.set.maps[i].inst, mappings[i].S, mappings[i].Pi)
		v.tmpl = len(w.set.probs)*(1+numParetoModes) + i
		w.set.verify = append(w.set.verify, v)
	}
	t = closedLoop(w.b.client, 0, len(w.set.verify), time.Time{}, false, func(s *sender, i int) (reply, string) {
		r := w.set.verify[i]
		rep, body := s.post(base+r.path, r.body)
		if rep.err == nil {
			rep.wrong = or.check(r, rep.status, body)
		}
		return rep, "warm"
	})
	if t.failed > 0 {
		return fmt.Errorf("hot-mix warm-up verify: %d of %d requests failed: %v", t.failed, t.attempted, t.complaints)
	}
	return nil
}

func (w *hotMix) send(or *oracle) sendFunc {
	base := w.nodes[0].url
	return func(s *sender, i int) (reply, string) {
		r := w.set.at(w.b.opts.seed, i)
		rep, body := s.post(base+r.path, r.body)
		if rep.err == nil {
			rep.wrong = or.check(r, rep.status, body)
		}
		return rep, r.path
	}
}

func (w *hotMix) measure(d time.Duration) (*measurement, error) {
	return measureOpenClosed(w.b, w.nodes, hotRate, hotOpenShare, d, w.send)
}

func (w *hotMix) close() {
	stopNodes(w.nodes)
	w.b.client.CloseIdleConnections()
}

// Request indices of a served workload's stream. The warm-up takes
// indices below cycleStride; timed cycle c sends its open-loop window
// from openFirst(c) and its closed-loop window from closedFirst(c). The
// open-loop window's requests and arrival times thus depend on the seed
// and the cycle alone, never on how many requests an earlier closed
// window managed to send.
const cycleStride = 1 << 24

func openFirst(c int) int   { return (c + 1) * cycleStride }
func closedFirst(c int) int { return openFirst(c) + cycleStride/2 }

// measureOpenClosed runs the cycles of a served workload for d: in each,
// Poisson arrivals at rate in an open loop for openShare of the cycle,
// then a closed loop, with one GET /metrics per node per second as
// operator traffic during both. Between cycles the program stands idle
// while the cycle's answers are certified and the reference is probed.
func measureOpenClosed(b *bench, nodes []*node, rate, openShare float64, d time.Duration, send func(*oracle) sendFunc) (*measurement, error) {
	m := newMeasurement(b.ref)
	before, err := scrapeAll(b.client, nodes)
	if err != nil {
		return nil, err
	}
	cycles := max(1, int(d/b.scale.cycle))
	length := d / time.Duration(cycles)
	openD := time.Duration(float64(length) * openShare)
	for c := 0; c < cycles; c++ {
		sc := startScraper(b.client, nodes)
		due := arrivals(b.opts.seed, rate, openD, uint64(c))
		open := openLoop(b.client, openFirst(c), due, b.traced, send(m.oracle))
		closed := closedLoop(b.client, closedFirst(c), 0, time.Now().Add(length-openD), b.traced, send(m.oracle))
		m.scrapeMS = append(m.scrapeMS, sc.stop()...)
		m.addLatency(open)
		m.addCapacity(closed)
		m.addCycle(open, closed)
	}
	after, err := scrapeAll(b.client, nodes)
	if err != nil {
		return nil, err
	}
	m.counters = delta(before, after)
	return m, nil
}

// scraper is the operator: one GET /metrics per node per second.
type scraper struct {
	stopc chan struct{}
	done  chan struct{}
	took  []float64
}

func startScraper(c *http.Client, nodes []*node) *scraper {
	sc := &scraper{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sc.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-sc.stopc:
				return
			case <-tick.C:
				for _, nd := range nodes {
					if _, took, err := scrape(c, nd.url); err == nil {
						sc.took = append(sc.took, ms(took))
					}
				}
			}
		}
	}()
	return sc
}

// stop ends the scraping and returns each scrape's time in ms.
func (sc *scraper) stop() []float64 {
	close(sc.stopc)
	<-sc.done
	return sc.took
}
