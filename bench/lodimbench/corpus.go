package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"lodim/internal/corpus"
	"lodim/internal/service"
)

// problem is one canonically distinct mapping problem of the corpus
// together with its recorded outcome — the oracle every answer about it
// is checked against.
type problem struct {
	idx  int             // position in the distinct set (manifest order)
	inst corpus.Instance // the first manifest instance of its class
	key  string          // canonical key plus dims, max_entry and max_cost
}

func (p *problem) feasible() bool { return p.inst.Feasible }

// loadDistinct reads the manifest and reduces its instances to the
// canonically distinct problems, keyed by service.Canonicalize(algo).Key
// plus dims, max_entry and max_cost, in manifest order. Instances of one
// class must carry one recorded outcome.
func loadDistinct(path string) ([]*problem, error) {
	_, insts, err := corpus.ReadFile(path)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]*problem, len(insts))
	var out []*problem
	for _, inst := range insts {
		algo, err := inst.Algorithm()
		if err != nil {
			return nil, err
		}
		key := service.Canonicalize(algo).Key + "|dims=" + strconv.Itoa(inst.Dims) +
			"|me=" + strconv.FormatInt(inst.MaxEntry, 10) + "|mc=" + strconv.FormatInt(inst.MaxCost, 10)
		if p, ok := byKey[key]; ok {
			if p.inst.Feasible != inst.Feasible || p.inst.TotalTime != inst.TotalTime || p.inst.Processors != inst.Processors {
				return nil, fmt.Errorf("manifest: %s and %s state one problem with different outcomes", p.inst.ID, inst.ID)
			}
			continue
		}
		p := &problem{idx: len(out), inst: inst, key: key}
		byKey[key] = p
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("manifest %s holds no instances", path)
	}
	return out, nil
}

// families lists the corpus families in manifest order.
var families = corpus.Families

// stratify draws n problems (all of them when n ≥ len(probs)) with each
// family contributing in proportion to its share of probs (largest
// remainder), chosen at random within the family. The draw is returned
// in distinct-set order.
func stratify(probs []*problem, n int, r *rand.Rand) []*problem {
	if n >= len(probs) {
		return probs
	}
	byFam := map[string][]*problem{}
	for _, p := range probs {
		byFam[p.inst.Family] = append(byFam[p.inst.Family], p)
	}
	quota := map[string]int{}
	rem := map[string]float64{}
	used := 0
	for _, f := range families {
		exact := float64(n) * float64(len(byFam[f])) / float64(len(probs))
		quota[f] = int(exact)
		rem[f] = exact - float64(quota[f])
		used += quota[f]
	}
	order := append([]string(nil), families...)
	sort.SliceStable(order, func(i, j int) bool { return rem[order[i]] > rem[order[j]] })
	for i := 0; used < n; i++ {
		f := order[i%len(order)]
		if quota[f] < len(byFam[f]) {
			quota[f]++
			used++
		}
	}
	var out []*problem
	for _, f := range families {
		ps := append([]*problem(nil), byFam[f]...)
		r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		out = append(out, ps[:quota[f]]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// sizeStrata is the number of size classes interleave splits each
// family into.
const sizeStrata = 4

// rankFixed are the families whose problems keep their place in the
// interleaved order whatever the seed. Their searches take milliseconds
// (one search worker, seed commit: bitlevel 16 ms on average and up to
// 100 ms, matmul 1.3 ms; every other family 0.2 ms or less), so a handful
// of their problems decide a Zipf stream's search cost. Where the seed
// ranked them moved that cost by about ±12% from seed to seed.
var rankFixed = map[string]bool{"bitlevel": true, "matmul": true}

// interleave orders all problems so that every prefix holds each
// stratum — a family and a quarter of its problems by size, the index
// points times the array dimensions — in proportion to its share, with
// the problems of a stratum in a random order, or in size order for the
// rankFixed families. A seeded Zipf ranking built this way keeps the
// family and size mix of the popular head, and so the search cost of
// the load, about the same for every seed, while which problems are
// popular still changes.
func interleave(probs []*problem, r *rand.Rand) []*problem {
	var strata [][]*problem
	for _, f := range families {
		var fam []*problem
		for _, p := range probs {
			if p.inst.Family == f {
				fam = append(fam, p)
			}
		}
		sort.SliceStable(fam, func(i, j int) bool { return size(fam[i]) < size(fam[j]) })
		for q := 0; q < sizeStrata; q++ {
			s := fam[q*len(fam)/sizeStrata : (q+1)*len(fam)/sizeStrata]
			if len(s) == 0 {
				continue
			}
			if !rankFixed[f] {
				r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			}
			strata = append(strata, s)
		}
	}
	taken := make([]int, len(strata))
	out := make([]*problem, 0, len(probs))
	for rank := 0; rank < len(probs); rank++ {
		best, bestLag := -1, -1.0
		for i, s := range strata {
			if taken[i] == len(s) {
				continue
			}
			lag := float64(rank+1)*float64(len(s))/float64(len(probs)) - float64(taken[i])
			if lag > bestLag {
				best, bestLag = i, lag
			}
		}
		out = append(out, strata[best][taken[best]])
		taken[best]++
	}
	return out
}

// size is a problem's index points times its array dimensions, a rough
// proxy for its search cost.
func size(p *problem) int64 {
	n := int64(p.inst.Dims)
	for _, b := range p.inst.Bounds {
		n *= b
	}
	return n
}

// splitmix64 is the finaliser of the SplitMix64 generator: a cheap,
// well-mixed hash that lets a stream derive request i from (seed, i)
// alone, without replaying a generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix hashes a seed and a tuple of stream coordinates into 64 bits.
func mix(seed int64, parts ...uint64) uint64 {
	h := splitmix64(uint64(seed))
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// newRand returns a math/rand generator seeded from the hash of the
// seed and the stream coordinates.
func newRand(seed int64, parts ...uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seed, parts...))))
}

// Stream tags keep the random streams of different purposes apart.
const (
	tagColdOrder uint64 = iota + 1
	tagJobs
	tagHotSet
	tagHotMix
	tagZipfRank
	tagZipfDraw
	tagArrivals
	tagSubset
)

// permuted restates an instance under a random axis permutation: a
// different request body for the same canonical problem.
func permuted(inst corpus.Instance, r *rand.Rand) corpus.Instance {
	return corpus.PermuteAxes(inst, r.Perm(len(inst.Bounds)))
}

// permutedBy is permuted with the permutation drawn from a hash, for
// streams that derive each request from its index.
func permutedBy(inst corpus.Instance, h uint64) corpus.Instance {
	perm := make([]int, len(inst.Bounds))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		h = splitmix64(h)
		j := int(h % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return corpus.PermuteAxes(inst, perm)
}

// kind names the endpoint a request exercises.
type kind uint8

const (
	kindMap kind = iota
	kindPareto
	kindVerify
	kindJob
)

// Pareto selection modes, rotated so that every mode of one front is
// served from the one cached front.
const numParetoModes = 3

// request is one generated request: its body, the problem it states in
// its own axis order, and the oracle.
type request struct {
	kind kind
	path string
	body []byte
	prob *problem
	inst corpus.Instance // the problem as this body states it
	tmpl int             // index of a repeated body (hot-mix), -1 when unique
}

func mapRequest(inst corpus.Instance) *service.MapRequest {
	return &service.MapRequest{
		Bounds:       inst.Bounds,
		Dependencies: inst.Dependencies,
		Dims:         inst.Dims,
		MaxEntry:     inst.MaxEntry,
		MaxCost:      inst.MaxCost,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("lodimbench: encoding a generated request: " + err.Error())
	}
	return b
}

func newMapRequest(p *problem, inst corpus.Instance) *request {
	return &request{kind: kindMap, path: "/v1/map", body: mustJSON(mapRequest(inst)), prob: p, inst: inst, tmpl: -1}
}

// newParetoRequest asks for the slack-1 front under one of the three
// selection modes.
func newParetoRequest(p *problem, inst corpus.Instance, mode int) *request {
	req := &service.ParetoRequest{
		Bounds:       inst.Bounds,
		Dependencies: inst.Dependencies,
		Dims:         inst.Dims,
		MaxEntry:     inst.MaxEntry,
		MaxCost:      inst.MaxCost,
		TimeSlack:    1,
	}
	switch mode % numParetoModes {
	case 1:
		req.Mode = "lex"
		req.LexOrder = []string{"processors", "time"}
	case 2:
		req.Mode = "weighted"
		req.Weights = map[string]int64{"time": 2, "processors": 1, "buffers": 1, "links": 1}
	}
	return &request{kind: kindPareto, path: "/v1/pareto", body: mustJSON(req), prob: p, inst: inst, tmpl: -1}
}

// newVerifyRequest asks to certify a mapping of the problem.
func newVerifyRequest(p *problem, inst corpus.Instance, s [][]int64, pi []int64) *request {
	req := &service.VerifyRequest{Bounds: inst.Bounds, Dependencies: inst.Dependencies, S: s, Pi: pi}
	return &request{kind: kindVerify, path: "/v1/verify", body: mustJSON(req), prob: p, inst: inst, tmpl: -1}
}

// newJobRequest submits the map problem to the asynchronous job tier.
func newJobRequest(p *problem, inst corpus.Instance) *request {
	req := &service.JobSubmitRequest{Kind: service.JobKindMap, Map: mapRequest(inst)}
	return &request{kind: kindJob, path: "/v1/jobs", body: mustJSON(req), prob: p, inst: inst, tmpl: -1}
}
