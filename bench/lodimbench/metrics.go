package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json at the root of
// the repository lists the same names and units; TestDeclaredMetrics
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the median
}

// endToEnd are the metrics a user of the service sees, reported by every
// workload of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"cpu_ms_per_req", "ms/req", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers, reported by every workload
// of a traced run (0 where a workload never enters the layer).
var perLayer = []metricDef{
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "p99_ms", unit: "ms", better: "lower"},
	{name: "intmat.hnf_us", unit: "us", better: "lower"},
	{name: "conflict.decide_us", unit: "us", better: "lower"},
	{name: "conflict.hnf_incremental_ratio", unit: "ratio", better: "higher"},
	{name: "schedule.joint_ms.matmul", unit: "ms", better: "lower"},
	{name: "schedule.joint_ms.transitive", unit: "ms", better: "lower"},
	{name: "schedule.joint_ms.convolution", unit: "ms", better: "lower"},
	{name: "schedule.joint_ms.bitlevel", unit: "ms", better: "lower"},
	{name: "schedule.joint_ms.adversarial", unit: "ms", better: "lower"},
	{name: "schedule.collect_share", unit: "ratio", better: "lower"},
	{name: "schedule.pareto_ms", unit: "ms", better: "lower"},
	{name: "schedule.space_candidates_per_search", unit: "count", better: "lower"},
	{name: "schedule.schedule_candidates_per_search", unit: "count", better: "lower"},
	{name: "schedule.pruned_orbit_per_search", unit: "count", better: "higher"},
	{name: "schedule.pruned_lower_bound_per_search", unit: "count", better: "higher"},
	{name: "schedule.pruned_incumbent_per_search", unit: "count", better: "higher"},
	{name: "schedule.inner_searches_per_search", unit: "count", better: "lower"},
	{name: "schedule.cost_levels_per_search", unit: "count", better: "lower"},
	{name: "schedule.search_ms", unit: "ms", better: "lower"},
	{name: "verify.certify_ms", unit: "ms", better: "lower"},
	{name: "verify.certify_pareto_ms", unit: "ms", better: "lower"},
	{name: "http.decode_ms", unit: "ms", better: "lower"},
	{name: "http.encode_ms", unit: "ms", better: "lower"},
	{name: "http.transport_ms", unit: "ms", better: "lower"},
	{name: "http.metrics_scrape_ms", unit: "ms", better: "lower"},
	{name: "service.canonicalize_ms", unit: "ms", better: "lower"},
	{name: "service.translate_ms", unit: "ms", better: "lower"},
	{name: "service.map_hit_us", unit: "us", better: "lower"},
	{name: "service.map_miss_ms", unit: "ms", better: "lower"},
	{name: "service.queue_ms", unit: "ms", better: "lower"},
	{name: "service.hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.miss_ratio", unit: "ratio", better: "lower"},
	{name: "service.shared_ratio", unit: "ratio", better: "higher"},
	{name: "service.searches_per_req", unit: "count", better: "lower"},
	{name: "service.evictions_per_req", unit: "count", better: "lower"},
	{name: "service.rejected", unit: "count", better: "lower"},
	{name: "cluster.forward_ms", unit: "ms", better: "lower"},
	{name: "cluster.forwards_per_req", unit: "count", better: "lower"},
	{name: "cluster.peer_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.peer_miss_ratio", unit: "ratio", better: "lower"},
	{name: "cluster.fills_sent_per_req", unit: "count", better: "lower"},
	{name: "cluster.fills_rejected", unit: "count", better: "lower"},
	{name: "cluster.forward_errors", unit: "count", better: "lower"},
	{name: "jobs.submit_ms", unit: "ms", better: "lower"},
	{name: "jobs.wait_ms", unit: "ms", better: "lower"},
	{name: "jobs.queue_ms", unit: "ms", better: "lower"},
	{name: "jobs.run_ms", unit: "ms", better: "lower"},
	{name: "jobs.fetch_ms", unit: "ms", better: "lower"},
	{name: "jobs.deduped_ratio", unit: "ratio", better: "higher"},
	{name: "jobs.spool_bytes_per_job", unit: "bytes", better: "lower"},
	{name: "error_ratio", unit: "ratio", better: "lower"},
	{name: "client.queue_ms", unit: "ms", better: "lower"},
	{name: "client.backlog_max", unit: "count", better: "lower"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower"},
	{name: "bench.unstaged_share", unit: "ratio", better: "lower"},
	{name: "bench.echo_rps", unit: "req/s", better: "higher"},
	{name: "bench.idle_cpu_share", unit: "ratio", better: "lower"},
}

// endToEndValues derives the end-to-end metrics of an untraced run from
// the set-up time and the run's totals, each timing expressed at the
// nominal reference rate (durations times the run's speed, rates divided
// by it), and the median over the cycles of each cycle's peak RSS.
func endToEndValues(setup float64, m *measurement) map[string]float64 {
	speed := m.speed()
	return map[string]float64{
		"setup_s":        setup * speed,
		"throughput_rps": ratio(float64(m.served), m.busy.Seconds()) / speed,
		"cpu_ms_per_req": ratio(ms(m.all.cpu), float64(m.all.correct())) * speed,
		"peak_rss_mb":    median(m.rss),
	}
}

// pooled returns every latency window's latencies.
func (m *measurement) pooled() []float64 {
	var out []float64
	for _, w := range m.windows {
		out = append(out, w...)
	}
	return out
}

// liveLayers derives the per-layer metrics the timed phases themselves
// give: X-Mapserve-Timing means over all answered requests, the cache
// dispositions of X-Mapserve-Cache, /metrics counter deltas, job-tier
// client and event timings, and the open-loop generator's own lag.
func liveLayers(m *measurement) map[string]float64 {
	all := m.all
	n := float64(all.answered)
	req := float64(all.attempted)
	stage := func(i int) float64 { return ratio(all.header[i], n) }
	var dispositions float64
	for _, v := range all.cache {
		dispositions += float64(v)
	}
	share := func(d ...string) float64 {
		var s float64
		for _, k := range d {
			s += float64(all.cache[k])
		}
		return ratio(s, dispositions)
	}
	c := m.counters
	searches := c["mapserve_searches_total"]
	perSearch := func(name string) float64 { return ratio(c[name], searches) }
	forwards := c[`mapserve_peer_forward_total{outcome="hit"}`] + c[`mapserve_peer_forward_total{outcome="miss"}`] +
		c[`mapserve_peer_forward_total{outcome="shared"}`] + c[`mapserve_peer_forward_total{outcome="error"}`]
	j := &all.jobs
	return map[string]float64{
		"http.decode_ms":                          stage(stDecode),
		"service.canonicalize_ms":                 stage(stCanonicalize),
		"service.queue_ms":                        stage(stQueue),
		"cluster.forward_ms":                      stage(stForward),
		"schedule.search_ms":                      stage(stSearch),
		"service.translate_ms":                    stage(stTranslate),
		"http.metrics_scrape_ms":                  mean(m.scrapeMS),
		"service.hit_ratio":                       share("hit"),
		"service.miss_ratio":                      share("miss"),
		"service.shared_ratio":                    share("shared", "peer_shared"),
		"cluster.peer_hit_ratio":                  share("peer_hit"),
		"cluster.peer_miss_ratio":                 share("peer_miss"),
		"service.searches_per_req":                ratio(searches, req),
		"service.evictions_per_req":               ratio(c["mapserve_cache_evictions_total"], req),
		"service.rejected":                        c["mapserve_rejected_total"],
		"schedule.space_candidates_per_search":    perSearch("mapserve_search_space_candidates_total"),
		"schedule.schedule_candidates_per_search": perSearch("mapserve_search_schedule_candidates_total"),
		"schedule.pruned_orbit_per_search":        perSearch(`mapserve_search_pruned_total{rule="orbit"}`),
		"schedule.pruned_lower_bound_per_search":  perSearch(`mapserve_search_pruned_total{rule="lower_bound"}`),
		"schedule.pruned_incumbent_per_search":    perSearch(`mapserve_search_pruned_total{rule="incumbent"}`),
		"schedule.inner_searches_per_search":      perSearch("mapserve_search_inner_searches_total"),
		"schedule.cost_levels_per_search":         perSearch("mapserve_search_cost_levels_total"),
		"cluster.forwards_per_req":                ratio(forwards, req),
		"cluster.fills_sent_per_req":              ratio(c[`mapserve_peer_fills_total{kind="sent"}`], req),
		"cluster.fills_rejected":                  c[`mapserve_peer_fills_total{kind="rejected"}`],
		"cluster.forward_errors":                  c[`mapserve_peer_forward_total{outcome="error"}`],
		"jobs.submit_ms":                          ratio(j.submitMS, float64(j.submitted)),
		"jobs.wait_ms":                            ratio(j.waitMS, float64(j.submitted)),
		"jobs.fetch_ms":                           ratio(j.fetchMS, float64(j.submitted)),
		"jobs.queue_ms":                           ratio(j.queueMS, float64(j.fresh)),
		"jobs.run_ms":                             ratio(j.runMS, float64(j.fresh)),
		"jobs.deduped_ratio":                      ratio(float64(j.deduped), float64(j.submitted)),
		"jobs.spool_bytes_per_job":                ratio(float64(j.spoolBytes), float64(j.spooledJobs)),
		"error_ratio":                             ratio(float64(all.failed), req),
		"client.queue_ms":                         ratio(m.lateSum, float64(m.sent)),
		"client.backlog_max":                      float64(m.backlog),
	}
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// restartPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the
// current RSS, so that VmHWM afterwards measures the cycle that follows
// rather than whichever earlier moment peaked. Where the mark cannot be
// reset, VmHWM keeps the process's lifetime peak.
func restartPeakRSS() {
	// Writing 5 to clear_refs resets VmHWM to the current RSS.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
