package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// cluster-zipf shape. A closed window's rate depends on how many heavy
// searches its requests happen to need, so three quarters of every
// cycle go to capacity: the more requests a run's capacity rests on,
// the less it moves with the draw. The open-loop rate is about a
// seventh of the seed commit's closed-loop capacity: the searches make
// the service time heavy-tailed, and at a third of that capacity a
// machine running at half speed queued the open loop into latencies of
// tens of ms. At this rate a run's open windows still hold over 1000
// latencies.
const (
	clusterNodes     = 3
	clusterCacheSize = 128   // per node, about a ninth of the working set
	clusterRate      = 220.0 // requests per second in the open phase
	clusterOpenShare = 0.25
	zipfS            = 1.1
	clusterPareto    = 0.10 // share of /v1/pareto; the rest is /v1/map
)

// zipfStream derives request i of cluster-zipf from (seed, i): a Zipf(s)
// draw over a seeded ranking of the distinct set, 90% map and 10%
// Pareto (modes rotating with i), under a random axis permutation.
type zipfStream struct {
	seed int64
	rank []*problem
	cdf  []float64 // cdf[k] = P(rank ≤ k)
}

func newZipfStream(probs []*problem, seed int64) *zipfStream {
	z := &zipfStream{seed: seed, rank: interleave(probs, newRand(seed, tagZipfRank))}
	z.cdf = make([]float64, len(z.rank))
	var sum float64
	for k := range z.cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipfStream) at(i int) *request {
	x := mix(z.seed, tagZipfDraw, uint64(i))
	u := unit(x)
	k := min(sort.SearchFloat64s(z.cdf, u), len(z.rank)-1)
	p := z.rank[k]
	x = splitmix64(x)
	inst := permutedBy(p.inst, splitmix64(x))
	if unit(x) < clusterPareto {
		return newParetoRequest(p, inst, i)
	}
	return newMapRequest(p, inst)
}

// clusterZipf is the sharded tier under a working set nine times the
// per-node cache: local hits, peer hits, forwarded misses, singleflight
// sharing, peer revalidation and the Pareto pipeline, with fills and
// evictions running beside the reads.
type clusterZipf struct {
	b     *bench
	z     *zipfStream
	nodes []*node
}

func prepareClusterZipf(b *bench, probs []*problem, log *accessLog) (runner, error) {
	nodes, err := startNodes(clusterNodes, nodeConfig(clusterCacheSize, log))
	if err != nil {
		return nil, err
	}
	return &clusterZipf{b: b, z: newZipfStream(probs, b.opts.seed), nodes: nodes}, nil
}

// warm sends a fixed number of stream requests, which bring the caches
// to their steady mix before anything is timed.
func (w *clusterZipf) warm() error {
	t := closedLoop(w.b.client, 0, w.b.scale.clusterWarm, time.Time{}, false, w.send(newOracle()))
	if t.failed > 0 {
		return fmt.Errorf("cluster-zipf warm-up: %d of %d requests failed: %v", t.failed, t.attempted, t.complaints)
	}
	return nil
}

// send spreads the stream round-robin over the nodes.
func (w *clusterZipf) send(or *oracle) sendFunc {
	return func(s *sender, i int) (reply, string) {
		r := w.z.at(i)
		rep, body := s.post(w.nodes[i%len(w.nodes)].url+r.path, r.body)
		if rep.err == nil {
			rep.wrong = or.check(r, rep.status, body)
		}
		return rep, r.path
	}
}

func (w *clusterZipf) measure(d time.Duration) (*measurement, error) {
	return measureOpenClosed(w.b, w.nodes, clusterRate, clusterOpenShare, d, w.send)
}

func (w *clusterZipf) close() {
	stopNodes(w.nodes)
	w.b.client.CloseIdleConnections()
}
