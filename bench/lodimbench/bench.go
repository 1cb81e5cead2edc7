package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart approximates the process's start: package variables are
// initialised before main runs.
var processStart = time.Now()

// workload is one named traffic mix; BENCHMARK.json records why each
// was chosen.
type workload struct {
	name string
	// prepare builds the workload's inputs from the distinct set and
	// starts its nodes (with the access-log capture when log is
	// non-nil); it sends no request.
	prepare func(b *bench, probs []*problem, log *accessLog) (runner, error)
}

var workloads = []workload{
	{"cold-map", prepareColdMap},
	{"hot-mix", prepareHotMix},
	{"cluster-zipf", prepareClusterZipf},
	{"jobs-spool", prepareJobsSpool},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner executes a prepared workload's traffic.
type runner interface {
	// warm sends the untimed warm-up traffic.
	warm() error
	// measure runs the timed phases for about d and returns them.
	measure(d time.Duration) (*measurement, error)
	// close stops the runner's nodes.
	close()
}

// measurement is the result of one workload's timed phases, cut into
// cycles: a pass, or an open-loop window and a closed-loop window. Each
// cycle is followed by a reference probe (see reference.go). The
// end-to-end timings come from the run's totals, expressed at the
// nominal reference rate by the mean of the run's probes; the
// per-window values are kept for the log.
type measurement struct {
	p50, p99 []float64     // latency percentiles of each latency window
	rate     []float64     // correct responses per second of each closed-loop window
	cpu      []float64     // process CPU ms per correct response of each cycle
	rss      []float64     // peak RSS in MB of each cycle
	echo     []float64     // the reference's rate right after each cycle
	windows  [][]float64   // every latency window's latencies
	served   int           // correct responses of the closed-loop windows
	busy     time.Duration // wall time of the closed-loop windows
	lateSum  float64       // Σ ms by which the latency windows' requests started late
	sent     int           // requests the latency windows attempted
	backlog  int           // most open-loop requests due but not started
	all      *tally        // every timed request
	counters counters
	scrapeMS []float64
	oracle   *oracle
	// certified counts the distinct answers the verifier has run on so
	// far; rejected holds its complaints.
	certified int
	rejected  []string
	ref       *reference
}

func newMeasurement(ref *reference) *measurement {
	return &measurement{all: newTally(), counters: counters{}, oracle: newOracle(), ref: ref}
}

// addLatency books a window whose latency percentiles count.
func (m *measurement) addLatency(t *tally) {
	lat := sortedCopy(t.lat)
	m.p50 = append(m.p50, percentile(lat, 0.50))
	m.p99 = append(m.p99, percentile(lat, 0.99))
	m.windows = append(m.windows, t.lat)
	m.lateSum += t.lateSum
	m.sent += t.attempted
	m.backlog = max(m.backlog, t.backlogMax)
}

// addCapacity books a closed-loop window whose rate counts.
func (m *measurement) addCapacity(t *tally) {
	m.rate = append(m.rate, ratio(float64(t.correct()), t.elapsed.Seconds()))
	m.served += t.correct()
	m.busy += t.elapsed
}

// addCycle books the CPU cost and the peak RSS of a cycle made of
// windows ts and their requests, certifies the cycle's new answers,
// probes the machine's speed, and restarts the peak-RSS mark for the
// next cycle. The caller has let the program fall idle: no request is
// in flight and no scrape runs (the service starts no periodic work of
// its own at default settings, which bench.idle_cpu_share checks). The
// garbage of the certification (and of a pass's discarded node) is
// collected before the probe, so that the next cycle does not pay for
// the collection of what happened outside it.
func (m *measurement) addCycle(ts ...*tally) {
	var cpu float64
	var n int
	for _, t := range ts {
		cpu += ms(t.cpu)
		n += t.correct()
		m.all.merge(t)
	}
	m.cpu = append(m.cpu, ratio(cpu, float64(n)))
	m.rss = append(m.rss, peakRSSMB())
	m.certify()
	runtime.GC()
	m.echo = append(m.echo, m.ref.probe())
	restartPeakRSS()
}

// certify runs the independent verifier over the answers checked since
// its last call.
func (m *measurement) certify() {
	n, complaints := m.oracle.certifyAll(context.Background(), runtime.GOMAXPROCS(0))
	m.certified += n
	m.rejected = append(m.rejected, complaints...)
}

// scale sizes a run. Smoke runs shrink everything so that the whole
// harness runs in a few seconds.
type scale struct {
	subset      int           // distinct problems used, 0 for all of them
	hot         int           // hot-mix working-set size
	clusterWarm int           // cluster-zipf warm-up requests
	setups      int           // set-up repetitions; setup_s is their median
	probe       time.Duration // length of each reference probe
	timed       time.Duration // measured time of a run
	cycle       time.Duration // length of a served workload's cycle
}

var (
	fullScale = scale{hot: hotProblems, clusterWarm: 2500, setups: 3, probe: 200 * time.Millisecond,
		timed: runSeconds * time.Second, cycle: 2 * time.Second}
	smokeScale = scale{subset: 96, hot: 16, clusterWarm: 300, setups: 1, probe: 20 * time.Millisecond,
		timed: time.Second / 2, cycle: time.Second / 4}
)

func scaleOf(o options) scale {
	if o.smoke {
		return smokeScale
	}
	return fullScale
}

// bench is one lodimbench process's state.
type bench struct {
	opts   options
	scale  scale
	client *http.Client
	ref    *reference
	traced bool // the timed phases record request spans
	log    io.Writer
}

func newBench(o options, log io.Writer) (*bench, error) {
	b := &bench{opts: o, scale: scaleOf(o), client: newClient(), log: log}
	ref, err := newReference(b.scale.probe)
	if err != nil {
		return nil, err
	}
	b.ref = ref
	return b, nil
}

func (b *bench) close() {
	b.ref.close()
	b.client.CloseIdleConnections()
}

// runResult is what a single-workload run reports.
type runResult struct {
	values   map[string]float64
	defs     []metricDef
	attempt  int
	failed   int
	wrong    int
	problems []string
}

// load reads the distinct set, reduced to the smoke subset if asked.
func (b *bench) load() ([]*problem, error) {
	probs, err := loadDistinct(b.opts.manifest)
	if err != nil {
		return nil, err
	}
	if b.scale.subset > 0 {
		probs = stratify(probs, b.scale.subset, newRand(1, tagSubset))
		for i, p := range probs {
			p.idx = i
		}
	}
	return probs, nil
}

// setup loads the distinct set, generates the workload's inputs, starts
// its nodes and sends the untimed warm-up — everything before the first
// timed request — scale.setups times, keeping the last, and returns the
// median time the repetitions took as measured, the first timed from
// process start. A single set-up moved by a third with the machine's
// short slowdowns; the median of three moves less.
func (b *bench) setup(w workload) ([]*problem, runner, float64, error) {
	var (
		probs []*problem
		run   runner
		took  []float64
	)
	start := processStart
	for k := 0; k < b.scale.setups; k++ {
		if run != nil {
			run.close()
			runtime.GC()
			start = time.Now()
		}
		var err error
		if probs, err = b.load(); err != nil {
			return nil, nil, 0, err
		}
		if run, err = w.prepare(b, probs, nil); err != nil {
			return nil, nil, 0, err
		}
		if err := run.warm(); err != nil {
			run.close()
			return nil, nil, 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	fmt.Fprintf(b.log, "lodimbench: set-ups took %.4f s as measured\n", took)
	return probs, run, median(took), nil
}

// speed is the machine's speed during a measurement relative to the
// nominal reference: the mean rate of its probes over nominalEcho.
// Successive probes vary by about ±11% and do not follow one another,
// while their mean follows the machine from run to run, so a run's
// timings are scaled by one mean rather than cycle by cycle.
func (m *measurement) speed() float64 {
	return mean(m.echo) / nominalEcho
}

// certify finishes the verifier's run over a measurement's distinct
// answers and books every rejection as a wrong answer.
func (b *bench) certify(m *measurement, res *runResult) {
	m.certify()
	fmt.Fprintf(b.log, "lodimbench: certified %d distinct answers, %d rejected\n", m.certified, len(m.rejected))
	res.wrong += len(m.rejected)
	res.failed += len(m.rejected)
	res.problems = append(res.problems, m.rejected...)
}

// book adds a measurement's requests to the run's counts.
func (res *runResult) book(m *measurement) {
	res.attempt += m.all.attempted
	res.failed += m.all.failed
	res.wrong += m.all.wrong
	res.problems = append(res.problems, m.all.complaints...)
}

// run executes one workload: set-up, then either the untraced timed
// phases (end-to-end metrics) or the traced run (per-layer metrics).
func (b *bench) run(w workload) (*runResult, error) {
	probs, run, setup, err := b.setup(w)
	if err != nil {
		return nil, err
	}
	d := b.scale.timed
	res := &runResult{}
	if b.opts.trace {
		err = b.runTraced(w, probs, run, d, res)
	} else {
		err = b.runPlain(w, run, d, setup, res)
	}
	if err == nil {
		err = b.ref.err
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runPlain measures the untraced timed phases and derives the
// end-to-end metrics.
func (b *bench) runPlain(w workload, run runner, d time.Duration, setup float64, res *runResult) error {
	// Return the set-up's garbage to the system, so that the first
	// cycle's peak does not hold the set-up's.
	debug.FreeOSMemory()
	restartPeakRSS()
	m, err := run.measure(d)
	run.close()
	if err != nil {
		return err
	}
	res.book(m)
	b.certify(m, res)
	res.values, res.defs = endToEndValues(setup, m), endToEnd
	b.describe(w, m)
	return nil
}

// runTraced measures the workload untraced for half the time (the
// reference for the tracing overhead), then again on fresh nodes with
// the access-log capture and request spans on, then replays the engines
// in process with a span around every public call.
func (b *bench) runTraced(w workload, probs []*problem, run runner, d time.Duration, res *runResult) error {
	plain, err := run.measure(d / 2)
	run.close()
	if err != nil {
		return err
	}
	res.book(plain)
	b.certify(plain, res)

	log := &accessLog{}
	if run, err = w.prepare(b, probs, log); err != nil {
		return err
	}
	if err = run.warm(); err != nil {
		run.close()
		return err
	}
	log.take() // drop the warm-up's lines
	rec := newRecorder()
	phase := rec.open("workload:"+w.name, 0)
	b.traced = true
	traced, err := run.measure(d / 2)
	b.traced = false
	run.close()
	rec.end(phase)
	if err != nil {
		return err
	}
	res.book(traced)
	b.certify(traced, res)

	values := liveLayers(traced)
	encode, transport, unstaged, latency := rec.requestSpans(phase, traced.all.spans, log.take())
	values["http.encode_ms"] = encode
	values["http.transport_ms"] = transport
	values["bench.unstaged_share"] = ratio(unstaged, latency)
	plainLat := sortedCopy(plain.pooled())
	tracedP50 := percentile(sortedCopy(traced.pooled()), 0.5) * traced.speed()
	values["p50_ms"] = percentile(plainLat, 0.5) * plain.speed()
	values["p99_ms"] = percentile(plainLat, 0.99) * plain.speed()
	values["bench.trace_overhead"] = ratio(tracedP50, values["p50_ms"])
	values["bench.echo_rps"] = mean(append(plain.echo, traced.echo...))
	values["bench.idle_cpu_share"] = b.ref.idleShare()
	values["error_ratio"] = ratio(float64(res.failed), float64(res.attempt))
	fmt.Fprintf(b.log, "lodimbench: traced %s: mean stages %.4f ms + transport %.4f ms + unstaged %.4f ms = mean latency %.4f ms\n",
		w.name, latency-transport-unstaged, transport, unstaged, latency)

	hot := newHotSet(probs, b.scale.hot, b.opts.seed).probs
	replayed, err := replay(context.Background(), rec, probs, hot)
	if err != nil {
		return err
	}
	for k, v := range replayed {
		values[k] = v
	}
	values["intmat.hnf_us"] = 1000 * mean(rec.byName("intmat.HermiteNormalForm"))
	values["conflict.decide_us"] = 1000 * mean(rec.byName("conflict.Decide"))
	values["verify.certify_ms"] = mean(rec.byName("verify.CertifyContext"))
	values["schedule.pareto_ms"] = mean(rec.byName("schedule.FindParetoContext"))
	values["verify.certify_pareto_ms"] = mean(rec.byName("verify.CertifyPareto"))
	values["service.map_hit_us"] = 1000 * mean(rec.byName("service.Map.hit"))
	values["service.map_miss_ms"] = mean(rec.byName("service.Map.miss"))
	for _, fam := range families {
		values["schedule.joint_ms."+fam] = mean(rec.familySpans("schedule.FindJointMappingContext", fam))
	}
	if b.opts.spans != "" {
		if err := rec.write(b.opts.spans); err != nil {
			return err
		}
	}
	res.values, res.defs = values, perLayer
	return nil
}

// describe prints a run's phase facts to the log: window and sample
// counts beside the percentiles, the spread of the window values, and
// the dispositions seen.
func (b *bench) describe(w workload, m *measurement) {
	fmt.Fprintf(b.log, "lodimbench: %s: %d requests, %d failed; %d latency windows of %d samples, %d capacity windows; cache %v\n",
		w.name, m.all.attempted, m.all.failed, len(m.p50), len(m.pooled()), len(m.rate), m.all.cache)
	spread := func(name string, v []float64) {
		s := sortedCopy(v)
		fmt.Fprintf(b.log, "  %-14s windows min %.4f median %.4f max %.4f\n", name, percentile(s, 0), median(s), percentile(s, 1))
	}
	spread("p50_ms", m.p50)
	spread("p99_ms", m.p99)
	spread("throughput", m.rate)
	spread("cpu_ms_per_req", m.cpu)
	spread("peak_rss_mb", m.rss)
	if windows, err := json.Marshal(map[string][]float64{"p50": m.p50, "p99": m.p99, "rate": m.rate, "cpu": m.cpu, "rss": m.rss, "echo": m.echo}); err == nil {
		fmt.Fprintf(b.log, "  windows as measured %s\n", windows)
	}
	fmt.Fprintf(b.log, "  reference: mean %.0f req/s, speed %.4f of nominal; the program used %.4f of a core while it ran\n",
		mean(m.echo), m.speed(), b.ref.idleShare())
	lat := sortedCopy(m.pooled())
	fmt.Fprintf(b.log, "  pooled latency ms p50 %.4f p90 %.4f p99 %.4f p99.9 %.4f max %.4f; senders started %.4f ms late on average, backlog at most %d\n",
		percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.99), percentile(lat, 0.999), percentile(lat, 1),
		ratio(m.lateSum, float64(m.sent)), m.backlog)
	if m.all.badTiming > 0 {
		fmt.Fprintf(b.log, "lodimbench: %d X-Mapserve-Timing headers did not parse\n", m.all.badTiming)
	}
}
