// Command maploadgen replays a generated corpus of mapping problems
// against one or more mapserve nodes and reports latency percentiles,
// cache-disposition ratios (local versus peer), and error-budget SLO
// verdicts — as a human-readable text summary on stderr and a JSON
// report on stdout (or -json FILE).
//
// Usage:
//
//	maploadgen -targets http://a:8080,http://b:8080 -n 1000 -rps 200
//	maploadgen -inproc 3 -n 1000            # self-contained 3-node cluster
//
// The corpus is deterministic for a seed: -problems distinct base
// problems, each request a random axis permutation of one of them — so
// the corpus exercises exactly the canonicalization and cluster-wide
// deduplication the service is built around. Requests spread
// round-robin across targets; 429/503 answers are retried honoring the
// server's Retry-After hint plus jitter.
//
// With -rps R the load is an open loop: request i is due at R⁻¹·i
// seconds after the start and is queued then even when every worker is
// busy, and its latency runs from that due time, so a stall is charged
// to the requests it delays. The report's backlog_max is the most
// requests ever due but not yet sent.
//
// With -tenants N every request carries an X-Mapserve-Tenant header
// rotating over N synthetic tenants, exercising the server's per-tenant
// accounting; -cluster-status polls /v1/cluster/status during the run
// and prints the server-side fleet and SLO verdicts next to the
// client-side ones.
//
// Exit status: 0 when every configured SLO passes, 1 otherwise.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lodim/internal/cluster"
	scenarios "lodim/internal/corpus"
	"lodim/internal/service"
)

type config struct {
	targets     []string
	inproc      int
	n           int
	problems    int
	corpusPath  string
	rps         float64
	concurrency int
	dims        int
	seed        int64
	timeout     time.Duration
	maxRetries  int
	jsonPath    string

	sloP99       time.Duration
	sloErrorRate float64
	sloHitRatio  float64

	tenants       int
	clusterStatus bool
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("maploadgen", flag.ContinueOnError)
	cfg := &config{}
	var targets string
	fs.StringVar(&targets, "targets", "", "comma-separated mapserve base URLs to drive")
	fs.IntVar(&cfg.inproc, "inproc", 0, "spin up an in-process cluster of this many nodes instead of -targets")
	fs.IntVar(&cfg.n, "n", 1000, "total requests to issue")
	fs.IntVar(&cfg.problems, "problems", 64, "distinct base problems in the corpus")
	fs.StringVar(&cfg.corpusPath, "corpus", "", "drive the feasible instances of a mapcorpus manifest instead of the synthetic corpus (-problems and -dims are then ignored)")
	fs.Float64Var(&cfg.rps, "rps", 0, "aggregate request rate (0 = unpaced)")
	fs.IntVar(&cfg.concurrency, "concurrency", 16, "concurrent client workers")
	fs.IntVar(&cfg.dims, "dims", 1, "target array dimensionality of every request")
	fs.Int64Var(&cfg.seed, "seed", 1, "corpus and jitter seed")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request client timeout")
	fs.IntVar(&cfg.maxRetries, "max-retries", 3, "retries per request on 429/503 (honoring Retry-After)")
	fs.StringVar(&cfg.jsonPath, "json", "", "write the JSON report here instead of stdout")
	fs.DurationVar(&cfg.sloP99, "slo-p99", 0, "fail if p99 latency exceeds this (0 = unchecked)")
	fs.Float64Var(&cfg.sloErrorRate, "slo-error-rate", 0.01, "fail if the error rate exceeds this fraction (negative = unchecked)")
	fs.Float64Var(&cfg.sloHitRatio, "slo-hit-ratio", -1, "fail if the aggregate cache-hit ratio falls below this fraction (negative = unchecked)")
	fs.IntVar(&cfg.tenants, "tenants", 0, "tag requests with X-Mapserve-Tenant headers rotating over this many synthetic tenants (0 = untagged)")
	fs.BoolVar(&cfg.clusterStatus, "cluster-status", false, "poll /v1/cluster/status during the run and report the server-side fleet verdicts next to the client-side ones")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			cfg.targets = append(cfg.targets, strings.TrimSuffix(t, "/"))
		}
	}
	if (len(cfg.targets) == 0) == (cfg.inproc == 0) {
		return nil, errors.New("exactly one of -targets or -inproc is required")
	}
	if cfg.inproc < 0 || cfg.inproc > 16 {
		if cfg.inproc != 0 {
			return nil, fmt.Errorf("-inproc must be in [1, 16], got %d", cfg.inproc)
		}
	}
	if cfg.n < 1 {
		return nil, fmt.Errorf("-n must be >= 1, got %d", cfg.n)
	}
	if cfg.problems < 1 {
		return nil, fmt.Errorf("-problems must be >= 1, got %d", cfg.problems)
	}
	if cfg.concurrency < 1 {
		return nil, fmt.Errorf("-concurrency must be >= 1, got %d", cfg.concurrency)
	}
	if cfg.dims < 1 || cfg.dims > 2 {
		return nil, fmt.Errorf("-dims must be 1 or 2, got %d", cfg.dims)
	}
	if cfg.rps < 0 {
		return nil, fmt.Errorf("-rps must be >= 0, got %g", cfg.rps)
	}
	if cfg.maxRetries < 0 {
		return nil, fmt.Errorf("-max-retries must be >= 0, got %d", cfg.maxRetries)
	}
	if cfg.tenants < 0 {
		return nil, fmt.Errorf("-tenants must be >= 0, got %d", cfg.tenants)
	}
	return cfg, nil
}

// problem is one corpus entry: an inline map request body.
type problem struct {
	Bounds       []int64   `json:"bounds"`
	Dependencies [][]int64 `json:"dependencies"`
	Dims         int       `json:"dims"`
	MaxEntry     int64     `json:"max_entry,omitempty"`
	MaxCost      int64     `json:"max_cost,omitempty"`
}

// corpus generates cfg.n request bodies over cfg.problems distinct base
// problems. Each request permutes its base problem's axes uniformly at
// random — permuted variants canonicalize to one key, so the generated
// load measures the cache and dedup tiers, not just raw search.
func corpus(cfg *config) []problem {
	rng := rand.New(rand.NewSource(cfg.seed))
	// Dependence pools: every base problem takes the unit dependencies
	// (always feasible) plus up to two extras that keep searches cheap
	// while making the problems structurally distinct.
	extras := [][]int64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}}
	bases := make([]problem, cfg.problems)
	for i := range bases {
		bounds := []int64{int64(rng.Intn(5) + 2), int64(rng.Intn(5) + 2), int64(rng.Intn(5) + 2)}
		deps := [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
		for _, e := range extras {
			if rng.Intn(2) == 1 {
				deps = append(deps, e)
			}
		}
		bases[i] = problem{Bounds: bounds, Dependencies: deps, Dims: cfg.dims}
	}
	out := make([]problem, cfg.n)
	for i := range out {
		// Touch every base once before sampling uniformly, so small -n
		// still covers the whole corpus.
		base := bases[i%cfg.problems]
		if i >= cfg.problems {
			base = bases[rng.Intn(cfg.problems)]
		}
		out[i] = permute(rng, base)
	}
	return out
}

// manifestCorpus generates cfg.n request bodies from the feasible
// instances of a mapcorpus manifest, each a random axis permutation of
// one instance, and returns the per-request family labels so the
// report can attribute hit ratios per scenario family.
func manifestCorpus(cfg *config) ([]problem, []string, error) {
	_, insts, err := scenarios.ReadFile(cfg.corpusPath)
	if err != nil {
		return nil, nil, err
	}
	feasible := insts[:0:0]
	for _, inst := range insts {
		if inst.Feasible {
			feasible = append(feasible, inst)
		}
	}
	if len(feasible) == 0 {
		return nil, nil, fmt.Errorf("manifest %s has no feasible instances", cfg.corpusPath)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	out := make([]problem, cfg.n)
	families := make([]string, cfg.n)
	for i := range out {
		inst := feasible[i%len(feasible)]
		if i >= len(feasible) {
			inst = feasible[rng.Intn(len(feasible))]
		}
		base := problem{
			Bounds: inst.Bounds, Dependencies: inst.Dependencies, Dims: inst.Dims,
			MaxEntry: inst.MaxEntry, MaxCost: inst.MaxCost,
		}
		out[i] = permute(rng, base)
		families[i] = inst.Family
	}
	return out, families, nil
}

// permute relabels a problem's axes by a random permutation — a
// different JSON body, the same canonical problem.
func permute(rng *rand.Rand, p problem) problem {
	n := len(p.Bounds)
	perm := rng.Perm(n)
	out := problem{Bounds: make([]int64, n), Dependencies: make([][]int64, len(p.Dependencies)), Dims: p.Dims, MaxEntry: p.MaxEntry, MaxCost: p.MaxCost}
	for i, ax := range perm {
		out.Bounds[i] = p.Bounds[ax]
	}
	for d, dep := range p.Dependencies {
		v := make([]int64, n)
		for i, ax := range perm {
			v[i] = dep[ax]
		}
		out.Dependencies[d] = v
	}
	return out
}

// outcome is one request's record.
type outcome struct {
	status     int
	cache      string
	retryAfter time.Duration
	latency    time.Duration
	retries    int
	err        error
}

// driver issues the corpus against the targets.
type driver struct {
	cfg     *config
	client  *http.Client
	results []outcome
}

// job is one request to issue. Under -rps, due is when the open loop
// schedules it; unpaced, due is zero and the request is timed from
// when a worker sends it.
type job struct {
	i   int
	due time.Time
}

func (d *driver) worker(wg *sync.WaitGroup, jobs <-chan job, bodies [][]byte, seed int64) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(seed))
	for j := range jobs {
		start := j.due
		if start.IsZero() {
			start = time.Now()
		}
		d.results[j.i] = d.issue(rng, d.cfg.targets[j.i%len(d.cfg.targets)], bodies[j.i], j.i, start)
	}
}

// dispatch hands the n requests to the workers. With rps > 0 it is an
// open loop: request i is due at start + i/rps and is queued at that
// time whether or not a worker is free, so a stall delays the requests
// behind it and its latency (timed from the due time) is charged to
// them. It returns the largest backlog seen: requests due but not yet
// taken by a worker.
func dispatch(jobs chan<- job, n int, rps float64) (backlogMax int) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if rps <= 0 {
			jobs <- job{i: i}
			continue
		}
		due := start.Add(time.Duration(float64(i) / rps * float64(time.Second)))
		time.Sleep(time.Until(due))
		jobs <- job{i: i, due: due}
		backlogMax = max(backlogMax, len(jobs))
	}
	return backlogMax
}

// issue posts one map request, retrying 429/503 with the server's
// Retry-After hint plus up to 250ms of jitter so synchronized retry
// herds cannot form. The latency runs from start.
func (d *driver) issue(rng *rand.Rand, target string, body []byte, idx int, start time.Time) outcome {
	retries := 0
	for attempt := 0; ; attempt++ {
		out := d.post(target, body, idx)
		retryable := out.err == nil &&
			(out.status == http.StatusTooManyRequests || out.status == http.StatusServiceUnavailable)
		if !retryable || attempt >= d.cfg.maxRetries {
			out.retries = retries
			out.latency = time.Since(start)
			return out
		}
		retries++
		delay := time.Second
		if out.retryAfter > 0 {
			delay = out.retryAfter
		}
		time.Sleep(delay + time.Duration(rng.Intn(250))*time.Millisecond)
	}
}

func (d *driver) post(target string, body []byte, idx int) outcome {
	req, err := http.NewRequest("POST", target+"/v1/map", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if d.cfg.tenants > 0 {
		req.Header.Set(service.TenantHeader, fmt.Sprintf("tenant-%03d", idx%d.cfg.tenants))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	out := outcome{status: resp.StatusCode, cache: resp.Header.Get("X-Mapserve-Cache")}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		out.retryAfter = time.Duration(secs) * time.Second
	}
	return out
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "maploadgen:", err)
		os.Exit(2)
	}
	report, pass, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maploadgen:", err)
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if cfg.jsonPath != "" {
		f, err := os.Create(cfg.jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maploadgen:", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(report)
	if !pass {
		os.Exit(1)
	}
}

// run executes the whole load test and renders the text summary to
// text. Split from main for tests.
func run(cfg *config, text io.Writer) (*report, bool, error) {
	var shutdown func()
	if cfg.inproc > 0 {
		targets, stop, err := startInprocCluster(cfg.inproc)
		if err != nil {
			return nil, false, err
		}
		cfg.targets = targets
		shutdown = stop
	}
	if shutdown != nil {
		defer shutdown()
	}

	var probs []problem
	var families []string
	if cfg.corpusPath != "" {
		var err error
		probs, families, err = manifestCorpus(cfg)
		if err != nil {
			return nil, false, err
		}
	} else {
		probs = corpus(cfg)
	}
	bodies := make([][]byte, len(probs))
	for i, p := range probs {
		b, err := json.Marshal(p)
		if err != nil {
			return nil, false, err
		}
		bodies[i] = b
	}

	d := &driver{
		cfg:     cfg,
		client:  &http.Client{Timeout: cfg.timeout},
		results: make([]outcome, cfg.n),
	}

	var poller *statusPoller
	if cfg.clusterStatus {
		poller = startStatusPoller(d.client, cfg.targets[0])
	}

	// The open loop never blocks on busy workers: its queue holds every
	// request.
	jobs := make(chan job)
	if cfg.rps > 0 {
		jobs = make(chan job, cfg.n)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go d.worker(&wg, jobs, bodies, cfg.seed+int64(w)+1)
	}
	backlog := dispatch(jobs, cfg.n, cfg.rps)
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	rep := summarize(cfg, families, d.results, wall)
	rep.Backlog = backlog
	if poller != nil {
		rep.Server = poller.finish()
		if rep.Server == nil {
			fmt.Fprintln(text, "maploadgen: /v1/cluster/status never answered; no server-side verdicts")
		}
	}
	pass := evaluateSLOs(cfg, rep)
	writeText(text, cfg, rep)
	return rep, pass, nil
}

// statusPoller samples /v1/cluster/status while the load runs, so the
// server-side verdicts in the report reflect the run itself, not just
// its aftermath.
type statusPoller struct {
	client *http.Client
	target string
	stop   chan struct{}
	done   chan struct{}

	mu    sync.Mutex
	polls int
	last  *service.ClusterStatusResponse
}

func startStatusPoller(client *http.Client, target string) *statusPoller {
	p := &statusPoller{client: client, target: target, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *statusPoller) loop() {
	defer close(p.done)
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		p.poll()
		select {
		case <-tick.C:
		case <-p.stop:
			return
		}
	}
}

func (p *statusPoller) poll() {
	cs, err := fetchClusterStatus(p.client, p.target)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.polls++
	p.last = cs
	p.mu.Unlock()
}

// finish stops the poller, takes one final sample after the load has
// fully drained, and returns the server-side view — nil when the
// endpoint never answered.
func (p *statusPoller) finish() *serverView {
	close(p.stop)
	<-p.done
	p.poll()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last == nil {
		return nil
	}
	return &serverView{Polls: p.polls, Fleet: p.last.Fleet}
}

func fetchClusterStatus(client *http.Client, target string) (*service.ClusterStatusResponse, error) {
	resp, err := client.Get(target + "/v1/cluster/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster status: HTTP %d", resp.StatusCode)
	}
	var cs service.ClusterStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// report is the JSON document maploadgen emits.
type report struct {
	Tool      string             `json:"tool"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	Targets   []string           `json:"targets"`
	Requests  int                `json:"requests"`
	Problems  int                `json:"problems"`
	Dims      int                `json:"dims"`
	Seed      int64              `json:"seed"`
	RPS       float64            `json:"rps_target"`
	Workers   int                `json:"concurrency"`
	WallSecs  float64            `json:"wall_seconds"`
	Achieved  float64            `json:"achieved_rps"`
	Backlog   int                `json:"backlog_max"` // -rps: most requests ever due but not yet sent
	OK        int                `json:"ok"`
	Errors    int                `json:"errors"`
	Retries   int                `json:"retries"`
	ByStatus  map[string]int     `json:"by_status"`
	LatencyMS map[string]float64 `json:"latency_ms"`
	Cache     map[string]int     `json:"cache"`
	Ratios    map[string]float64 `json:"ratios"`
	// Families attributes outcomes per scenario family when the corpus
	// comes from a mapcorpus manifest (-corpus).
	Families map[string]*famStats `json:"families,omitempty"`
	SLOs     []sloVerdict         `json:"slos"`
	// Server is the fleet-side view sampled from /v1/cluster/status when
	// -cluster-status is set.
	Server *serverView `json:"server,omitempty"`
}

// serverView is the server-side fleet status seen during the run.
type serverView struct {
	Polls int                 `json:"polls"`
	Fleet service.FleetStatus `json:"fleet"`
}

// famStats is one scenario family's slice of a corpus-driven run.
type famStats struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Hits     int     `json:"hits"`
	HitRatio float64 `json:"hit_ratio"`
}

type sloVerdict struct {
	Name   string  `json:"name"`
	Target float64 `json:"target"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
}

func summarize(cfg *config, families []string, results []outcome, wall time.Duration) *report {
	rep := &report{
		Tool: "maploadgen", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Targets: cfg.targets, Requests: len(results), Problems: cfg.problems,
		Dims: cfg.dims, Seed: cfg.seed, RPS: cfg.rps, Workers: cfg.concurrency,
		WallSecs: wall.Seconds(),
		ByStatus: map[string]int{}, Cache: map[string]int{}, Ratios: map[string]float64{},
	}
	if wall > 0 {
		rep.Achieved = float64(len(results)) / wall.Seconds()
	}
	var lats []float64
	for _, r := range results {
		rep.Retries += r.retries
		if r.err != nil {
			rep.ByStatus["transport_error"]++
			rep.Errors++
			continue
		}
		rep.ByStatus[strconv.Itoa(r.status)]++
		if r.status != http.StatusOK {
			rep.Errors++
			continue
		}
		rep.OK++
		lats = append(lats, float64(r.latency.Nanoseconds())/1e6)
		if r.cache != "" {
			rep.Cache[r.cache]++
		}
	}
	sort.Float64s(lats)
	rep.LatencyMS = map[string]float64{
		"p50": percentile(lats, 0.50),
		"p95": percentile(lats, 0.95),
		"p99": percentile(lats, 0.99),
		"max": percentile(lats, 1.0),
	}
	if n := len(lats); n > 0 {
		var sum float64
		for _, l := range lats {
			sum += l
		}
		rep.LatencyMS["mean"] = sum / float64(n)
	}
	if rep.OK > 0 {
		ok := float64(rep.OK)
		hit := float64(rep.Cache["hit"])
		peerHit := float64(rep.Cache["peer_hit"])
		shared := float64(rep.Cache["shared"] + rep.Cache["peer_shared"])
		searches := float64(rep.Cache["miss"] + rep.Cache["peer_miss"])
		rep.Ratios["local_hit"] = hit / ok
		rep.Ratios["peer_hit"] = peerHit / ok
		// Aggregate: every response that did not require a fresh search.
		rep.Ratios["aggregate_hit"] = (hit + peerHit + shared) / ok
		rep.Ratios["search"] = searches / ok
	}
	rep.Ratios["error_rate"] = float64(rep.Errors) / float64(len(results))
	if len(families) == len(results) && len(families) > 0 {
		rep.Families = map[string]*famStats{}
		for i, r := range results {
			fs := rep.Families[families[i]]
			if fs == nil {
				fs = &famStats{}
				rep.Families[families[i]] = fs
			}
			fs.Requests++
			if r.err != nil || r.status != http.StatusOK {
				continue
			}
			fs.OK++
			switch r.cache {
			case "hit", "peer_hit", "shared", "peer_shared":
				fs.Hits++
			}
		}
		for _, fs := range rep.Families {
			if fs.OK > 0 {
				fs.HitRatio = float64(fs.Hits) / float64(fs.OK)
			}
		}
	}
	return rep
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func evaluateSLOs(cfg *config, rep *report) bool {
	pass := true
	add := func(name string, target, actual float64, ok bool) {
		rep.SLOs = append(rep.SLOs, sloVerdict{Name: name, Target: target, Actual: actual, Pass: ok})
		pass = pass && ok
	}
	if cfg.sloErrorRate >= 0 {
		er := rep.Ratios["error_rate"]
		add("error_rate_max", cfg.sloErrorRate, er, er <= cfg.sloErrorRate)
	}
	if cfg.sloP99 > 0 {
		p99 := rep.LatencyMS["p99"]
		target := float64(cfg.sloP99.Nanoseconds()) / 1e6
		add("p99_latency_ms_max", target, p99, p99 <= target)
	}
	if cfg.sloHitRatio >= 0 {
		hr := rep.Ratios["aggregate_hit"]
		add("aggregate_hit_ratio_min", cfg.sloHitRatio, hr, hr >= cfg.sloHitRatio)
	}
	return pass
}

func writeText(w io.Writer, cfg *config, rep *report) {
	fmt.Fprintf(w, "maploadgen: %d requests over %d targets in %.2fs (%.1f req/s achieved, %.0f targeted)\n",
		rep.Requests, len(cfg.targets), rep.WallSecs, rep.Achieved, cfg.rps)
	if cfg.rps > 0 {
		fmt.Fprintf(w, "  open loop: latency from each request's due time; backlog max %d\n", rep.Backlog)
	}
	fmt.Fprintf(w, "  ok %d, errors %d, retries %d; statuses %v\n", rep.OK, rep.Errors, rep.Retries, rep.ByStatus)
	fmt.Fprintf(w, "  latency ms: p50 %.2f, p95 %.2f, p99 %.2f, mean %.2f, max %.2f\n",
		rep.LatencyMS["p50"], rep.LatencyMS["p95"], rep.LatencyMS["p99"], rep.LatencyMS["mean"], rep.LatencyMS["max"])
	fmt.Fprintf(w, "  cache: %v\n", rep.Cache)
	fmt.Fprintf(w, "  ratios: local_hit %.3f, peer_hit %.3f, aggregate_hit %.3f, search %.3f, error_rate %.4f\n",
		rep.Ratios["local_hit"], rep.Ratios["peer_hit"], rep.Ratios["aggregate_hit"], rep.Ratios["search"], rep.Ratios["error_rate"])
	if len(rep.Families) > 0 {
		fams := make([]string, 0, len(rep.Families))
		for f := range rep.Families {
			fams = append(fams, f)
		}
		sort.Strings(fams)
		for _, f := range fams {
			fs := rep.Families[f]
			fmt.Fprintf(w, "  family %-12s requests %4d, ok %4d, hit_ratio %.3f\n", f, fs.Requests, fs.OK, fs.HitRatio)
		}
	}
	for _, s := range rep.SLOs {
		verdict := "PASS"
		if !s.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  slo %-24s target %.4f actual %.4f  %s\n", s.Name, s.Target, s.Actual, verdict)
	}
	if rep.Server != nil {
		f := rep.Server.Fleet
		fmt.Fprintf(w, "  fleet %s: %d node(s), %d ok, %d degraded, %d unreachable; %d requests (%d status polls)\n",
			f.Status, f.Nodes, f.Healthy, f.Degraded, f.Unreachable, f.Requests, rep.Server.Polls)
		for _, ob := range f.SLO {
			verdict := "OK"
			if ob.Breached {
				verdict = "BREACHED on " + strings.Join(ob.BreachedNodes, ",")
			}
			fmt.Fprintf(w, "  slo server:%-17s burn fast %.2f slow %.2f  %s\n", ob.Objective, ob.MaxFastBurn, ob.MaxSlowBurn, verdict)
		}
		for _, tu := range f.Tenants {
			fmt.Fprintf(w, "  tenant %-16s requests %5d, cache hits %5d, search ms %6d, rejections %d\n",
				tu.Tenant, tu.Requests, tu.CacheHits, tu.SearchMillis, tu.QueueRejections)
		}
	}
}

// startInprocCluster builds a self-contained cfg-node mapserve cluster
// on loopback listeners and returns its base URLs plus a shutdown
// function. Ports are bound before the services are built so every
// node knows the full membership up front.
func startInprocCluster(n int) ([]string, func(), error) {
	listeners := make([]net.Listener, n)
	members := make([]cluster.Member, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		listeners[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), URL: "http://" + ln.Addr().String()}
	}
	targets := make([]string, n)
	servers := make([]*http.Server, n)
	services := make([]*service.Service, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{
			Cluster: &service.ClusterConfig{Self: members[i], Peers: members},
		})
		services[i] = svc
		srv := &http.Server{Handler: service.NewHandler(svc)}
		servers[i] = srv
		go srv.Serve(listeners[i])
		targets[i] = members[i].URL
	}
	stop := func() {
		for _, srv := range servers {
			srv.Close()
		}
		for _, svc := range services {
			svc.Close()
		}
	}
	return targets, stop, nil
}
