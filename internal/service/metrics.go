package service

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/slo"
)

// latencyBuckets are the upper bounds (seconds) of the search-latency
// histogram, log-spaced from "cache-adjacent" to "deep search". An
// implicit +Inf bucket catches the rest.
var latencyBuckets = [numLatencyBuckets]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

const numLatencyBuckets = 7

// metrics aggregates the service counters. All fields are atomics so
// the hot request path never takes a lock for observability.
type metrics struct {
	mapRequests           atomic.Int64
	paretoRequests        atomic.Int64
	conflictRequests      atomic.Int64
	simulateRequests      atomic.Int64
	verifyRequests        atomic.Int64
	batchRequests         atomic.Int64
	jobsRequests          atomic.Int64
	peerLookupRequests    atomic.Int64
	peerFillRequests      atomic.Int64
	peerStatusRequests    atomic.Int64
	clusterStatusRequests atomic.Int64

	verifyCacheHits   atomic.Int64
	verifyCacheMisses atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	searches    atomic.Int64 // actual joint searches executed
	deduped     atomic.Int64 // requests that joined an in-progress flight

	rejected atomic.Int64 // admission-control rejections (429)
	timeouts atomic.Int64 // requests ended by deadline/cancellation
	failures atomic.Int64 // internal errors (500)

	inflight atomic.Int64 // searches holding a pool slot right now
	queued   atomic.Int64 // requests waiting for a slot right now

	latCounts [numLatencyBuckets + 1]atomic.Int64
	latSumNs  atomic.Int64
	latCount  atomic.Int64
	// latExemplars retains, per bucket, the most recently observed
	// (trace-id, value, timestamp) — rendered in OpenMetrics exemplar
	// syntax on /metrics and as the click-through table on
	// /debug/requests. One pointer swap per search; no lock.
	latExemplars [numLatencyBuckets + 1]atomic.Pointer[exemplar]

	// Per-stage request-timing histograms (same bucket bounds as the
	// search-latency histogram), indexed by the timing.go stage
	// constants.
	stageCounts [numStages][numLatencyBuckets + 1]atomic.Int64
	stageSumNs  [numStages]atomic.Int64
	stageCount  [numStages]atomic.Int64

	// Search-effort counters aggregated from schedule.SearchStats.
	prunedOrbit        atomic.Int64
	prunedLowerBound   atomic.Int64
	prunedIncumbent    atomic.Int64
	spaceCandidates    atomic.Int64
	scheduleCandidates atomic.Int64
	costLevels         atomic.Int64
	innerSearches      atomic.Int64

	// Cluster-tier counters. The forward family is the non-owner side
	// (what happened when this node forwarded a key to its owner); the
	// served family is the owner side (dispositions of peer lookups this
	// node answered); fills track /peer/v1/fill traffic both ways.
	// Rendered only when clustered is true, so a single-node /metrics
	// stays unchanged.
	clustered         bool
	peerForwardHit    atomic.Int64 // owner answered from its cache
	peerForwardMiss   atomic.Int64 // owner ran the search for us
	peerForwardShared atomic.Int64 // owner joined an in-flight search
	peerForwardErrors atomic.Int64 // forward failed → local fallback search
	peerServedHit     atomic.Int64
	peerServedMiss    atomic.Int64
	peerServedShared  atomic.Int64
	peerFillsSent     atomic.Int64
	peerFillsRecv     atomic.Int64
	peerFillsRejected atomic.Int64
	peerFillSendErrs  atomic.Int64

	// cacheStats, when set, reports the LRU's (entries, evictions,
	// bytes-estimate) occupancy — wired by service.New like
	// traceCounters, so the metrics layer needs no cache dependency.
	cacheStats func() (entries, evictions, bytes int64)

	// traceCounters, when set, reports the tracer's (started, dropped,
	// finished) span/trace counts — wired by service.New so the metrics
	// layer needs no tracer dependency.
	traceCounters func() (started, dropped, finished int64)

	// jobStats, when set, reports the async job tier's counters — wired
	// by service.New like cacheStats, and gating the jobs metric
	// families so a node without the tier renders none of them.
	jobStats func() jobs.Stats
	// jobsForwarded counts job-endpoint requests this node proxied to
	// their ring owner (the job tier's analogue of peer_forward).
	jobsForwarded atomic.Int64

	// sloStats, when set, reports the SLO engine's snapshot — wired by
	// service.New when objectives are configured, and gating the SLO
	// metric families.
	sloStats func() slo.Snapshot

	// tenantStats, when set, reports the bounded per-tenant usage table
	// sorted by tenant name — wired by service.New, gating the tenant
	// families.
	tenantStats func() []cluster.TenantUsage
}

// exemplar is one retained histogram-bucket exemplar.
type exemplar struct {
	traceID string
	value   float64 // seconds
	unixMS  int64
}

// requestCounter returns the per-endpoint request counter; the
// instrument wrapper is its only incrementer, so each request counts
// exactly once on every path.
func (m *metrics) requestCounter(endpoint string) *atomic.Int64 {
	switch endpoint {
	case "map":
		return &m.mapRequests
	case "conflict":
		return &m.conflictRequests
	case "simulate":
		return &m.simulateRequests
	case "verify":
		return &m.verifyRequests
	case "batch":
		return &m.batchRequests
	case "jobs":
		return &m.jobsRequests
	case "peer_lookup":
		return &m.peerLookupRequests
	case "peer_fill":
		return &m.peerFillRequests
	case "pareto":
		return &m.paretoRequests
	case "peer_status":
		return &m.peerStatusRequests
	case "cluster_status":
		return &m.clusterStatusRequests
	}
	panic("service: unknown endpoint " + endpoint)
}

// requestsTotal sums every endpoint counter — the node-level request
// count the cluster status page reports.
func (m *metrics) requestsTotal() int64 {
	return m.mapRequests.Load() + m.paretoRequests.Load() + m.conflictRequests.Load() +
		m.simulateRequests.Load() + m.verifyRequests.Load() + m.batchRequests.Load() +
		m.jobsRequests.Load() + m.peerLookupRequests.Load() + m.peerFillRequests.Load() +
		m.peerStatusRequests.Load() + m.clusterStatusRequests.Load()
}

// bucketIndex returns the histogram bucket for a duration in seconds.
func bucketIndex(secs float64) int {
	i := 0
	for i < len(latencyBuckets) && secs > latencyBuckets[i] {
		i++
	}
	return i
}

// observeStage records one stage duration in its histogram.
func (m *metrics) observeStage(stage int, d time.Duration) {
	m.stageCounts[stage][bucketIndex(d.Seconds())].Add(1)
	m.stageSumNs[stage].Add(d.Nanoseconds())
	m.stageCount[stage].Add(1)
}

// observeTimer folds a finished request's stage timings into the
// per-stage histograms.
func (m *metrics) observeTimer(t *reqTimer) {
	for stage := 0; stage < numStages; stage++ {
		if d, ok := t.duration(stage); ok {
			m.observeStage(stage, d)
		}
	}
}

// observeSearchStats folds one search's effort report into the
// aggregate pruning counters.
func (m *metrics) observeSearchStats(st *schedule.SearchStats) {
	if st == nil {
		return
	}
	m.prunedOrbit.Add(st.PrunedOrbit)
	m.prunedLowerBound.Add(st.PrunedLowerBound)
	m.prunedIncumbent.Add(st.PrunedIncumbent)
	m.spaceCandidates.Add(st.SpaceCandidates)
	m.scheduleCandidates.Add(st.ScheduleCandidates)
	m.costLevels.Add(st.CostLevels)
	m.innerSearches.Add(st.InnerSearches)
}

// observeSearch records one search latency in the histogram and, when
// the request carries a trace, retains it as the bucket's exemplar.
func (m *metrics) observeSearch(d time.Duration, traceID string) {
	idx := bucketIndex(d.Seconds())
	m.latCounts[idx].Add(1)
	m.latSumNs.Add(d.Nanoseconds())
	m.latCount.Add(1)
	if traceID != "" {
		m.latExemplars[idx].Store(&exemplar{
			traceID: traceID,
			value:   d.Seconds(),
			unixMS:  time.Now().UnixMilli(),
		})
	}
}

// exemplarBucketLabel is the le label of bucket i ("+Inf" for the
// overflow bucket) — shared by the Prometheus render, the expvar
// snapshot, and the /debug/requests table so they can never disagree.
func exemplarBucketLabel(i int) string {
	if i >= numLatencyBuckets {
		return "+Inf"
	}
	return strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
}

// exemplars returns the retained bucket exemplars in bucket order.
func (m *metrics) exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := 0; i <= numLatencyBuckets; i++ {
		ex := m.latExemplars[i].Load()
		if ex == nil {
			continue
		}
		out = append(out, BucketExemplar{
			Bucket:  exemplarBucketLabel(i),
			TraceID: ex.traceID,
			Value:   ex.value,
			UnixMS:  ex.unixMS,
		})
	}
	return out
}

// BucketExemplar is one bucket's retained exemplar in exported form.
type BucketExemplar struct {
	Bucket  string
	TraceID string
	Value   float64 // seconds
	UnixMS  int64
}

// WritePrometheus renders the counters in the Prometheus text
// exposition format (the GET /metrics payload).
func (m *metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP mapserve_requests_total Requests received, by endpoint.\n# TYPE mapserve_requests_total counter\n")
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"map\"} %d\n", m.mapRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"pareto\"} %d\n", m.paretoRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"conflict\"} %d\n", m.conflictRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"simulate\"} %d\n", m.simulateRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"verify\"} %d\n", m.verifyRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"batch\"} %d\n", m.batchRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"jobs\"} %d\n", m.jobsRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"peer_lookup\"} %d\n", m.peerLookupRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"peer_fill\"} %d\n", m.peerFillRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"peer_status\"} %d\n", m.peerStatusRequests.Load())
	fmt.Fprintf(w, "mapserve_requests_total{endpoint=\"cluster_status\"} %d\n", m.clusterStatusRequests.Load())
	counter("mapserve_cache_hits_total", "Map requests answered from the canonical result cache.", m.cacheHits.Load())
	counter("mapserve_cache_misses_total", "Map requests that required a search.", m.cacheMisses.Load())
	counter("mapserve_verify_cache_hits_total", "Verify requests answered from the canonical certificate cache.", m.verifyCacheHits.Load())
	counter("mapserve_verify_cache_misses_total", "Verify requests that ran the certification engine.", m.verifyCacheMisses.Load())
	counter("mapserve_searches_total", "Joint (S, Pi) searches actually executed.", m.searches.Load())
	counter("mapserve_singleflight_deduped_total", "Map requests that joined an identical in-progress search.", m.deduped.Load())
	counter("mapserve_rejected_total", "Requests rejected by admission control.", m.rejected.Load())
	counter("mapserve_timeouts_total", "Requests ended by deadline or cancellation.", m.timeouts.Load())
	counter("mapserve_failures_total", "Requests failed with an internal error.", m.failures.Load())
	gauge("mapserve_inflight_searches", "Searches holding a worker-pool slot.", m.inflight.Load())
	gauge("mapserve_queued_requests", "Requests waiting for a worker-pool slot.", m.queued.Load())
	if hits, misses := m.cacheHits.Load(), m.cacheMisses.Load(); hits+misses > 0 {
		fmt.Fprintf(w, "# HELP mapserve_cache_hit_ratio Cache hits over cacheable map requests.\n# TYPE mapserve_cache_hit_ratio gauge\nmapserve_cache_hit_ratio %.6f\n",
			float64(hits)/float64(hits+misses))
	}
	if m.cacheStats != nil {
		entries, evictions, bytes := m.cacheStats()
		gauge("mapserve_cache_entries", "Resident canonical cache entries.", entries)
		counter("mapserve_cache_evictions_total", "Entries evicted by LRU capacity pressure.", evictions)
		gauge("mapserve_cache_bytes_estimate", "Estimated bytes held by resident cache entries.", bytes)
	}
	if m.clustered {
		fmt.Fprintf(w, "# HELP mapserve_peer_forward_total Lookups this node forwarded to key owners, by outcome.\n# TYPE mapserve_peer_forward_total counter\n")
		fmt.Fprintf(w, "mapserve_peer_forward_total{outcome=\"hit\"} %d\n", m.peerForwardHit.Load())
		fmt.Fprintf(w, "mapserve_peer_forward_total{outcome=\"miss\"} %d\n", m.peerForwardMiss.Load())
		fmt.Fprintf(w, "mapserve_peer_forward_total{outcome=\"shared\"} %d\n", m.peerForwardShared.Load())
		fmt.Fprintf(w, "mapserve_peer_forward_total{outcome=\"error\"} %d\n", m.peerForwardErrors.Load())
		fmt.Fprintf(w, "# HELP mapserve_peer_served_total Peer lookups this node answered as owner, by disposition.\n# TYPE mapserve_peer_served_total counter\n")
		fmt.Fprintf(w, "mapserve_peer_served_total{disposition=\"hit\"} %d\n", m.peerServedHit.Load())
		fmt.Fprintf(w, "mapserve_peer_served_total{disposition=\"miss\"} %d\n", m.peerServedMiss.Load())
		fmt.Fprintf(w, "mapserve_peer_served_total{disposition=\"shared\"} %d\n", m.peerServedShared.Load())
		fmt.Fprintf(w, "# HELP mapserve_peer_fills_total Peer cache-fill traffic, by kind.\n# TYPE mapserve_peer_fills_total counter\n")
		fmt.Fprintf(w, "mapserve_peer_fills_total{kind=\"sent\"} %d\n", m.peerFillsSent.Load())
		fmt.Fprintf(w, "mapserve_peer_fills_total{kind=\"received\"} %d\n", m.peerFillsRecv.Load())
		fmt.Fprintf(w, "mapserve_peer_fills_total{kind=\"rejected\"} %d\n", m.peerFillsRejected.Load())
		fmt.Fprintf(w, "mapserve_peer_fills_total{kind=\"send_error\"} %d\n", m.peerFillSendErrs.Load())
	}
	fmt.Fprintf(w, "# HELP mapserve_search_pruned_total Search candidates removed before evaluation, by pruning rule.\n# TYPE mapserve_search_pruned_total counter\n")
	fmt.Fprintf(w, "mapserve_search_pruned_total{rule=\"orbit\"} %d\n", m.prunedOrbit.Load())
	fmt.Fprintf(w, "mapserve_search_pruned_total{rule=\"lower_bound\"} %d\n", m.prunedLowerBound.Load())
	fmt.Fprintf(w, "mapserve_search_pruned_total{rule=\"incumbent\"} %d\n", m.prunedIncumbent.Load())
	counter("mapserve_search_space_candidates_total", "Space mappings enumerated by the joint search.", m.spaceCandidates.Load())
	counter("mapserve_search_schedule_candidates_total", "Schedule vectors examined across all inner searches.", m.scheduleCandidates.Load())
	counter("mapserve_search_cost_levels_total", "Objective levels stepped through by Procedure 5.1.", m.costLevels.Load())
	counter("mapserve_search_inner_searches_total", "Inner Procedure 5.1 searches launched by the joint search.", m.innerSearches.Load())
	if m.traceCounters != nil {
		spans, dropped, finished := m.traceCounters()
		counter("mapserve_trace_spans_total", "Trace spans started.", spans)
		counter("mapserve_trace_spans_dropped_total", "Spans dropped by the per-trace span cap.", dropped)
		counter("mapserve_traces_total", "Traces completed.", finished)
	}
	if m.jobStats != nil {
		st := m.jobStats()
		fmt.Fprintf(w, "# HELP mapserve_jobs_total Async job lifecycle events, by kind.\n# TYPE mapserve_jobs_total counter\n")
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"submitted\"} %d\n", st.Submitted)
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"deduped\"} %d\n", st.Deduped)
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"rejected\"} %d\n", st.Rejected)
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"done\"} %d\n", st.Done)
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"failed\"} %d\n", st.Failed)
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"cancelled\"} %d\n", st.Cancelled)
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"resumed\"} %d\n", st.Resumed)
		fmt.Fprintf(w, "mapserve_jobs_total{event=\"requeued\"} %d\n", st.Requeued)
		gauge("mapserve_jobs_queued", "Jobs waiting for a job worker.", st.Queued)
		gauge("mapserve_jobs_running", "Jobs holding a job worker.", st.Running)
		counter("mapserve_jobs_forwarded_total", "Job requests proxied to their ring owner.", m.jobsForwarded.Load())
	}
	if m.sloStats != nil {
		snap := m.sloStats()
		fmt.Fprintf(w, "# HELP mapserve_slo_burn_rate Error-budget burn rate per objective and rolling window (1 = sustainable).\n# TYPE mapserve_slo_burn_rate gauge\n")
		for _, ob := range snap.Objectives {
			for _, wb := range ob.Burn {
				fmt.Fprintf(w, "mapserve_slo_burn_rate{objective=%q,window=%q} %.6f\n", ob.Name, wb.Window, wb.Burn)
			}
		}
		fmt.Fprintf(w, "# HELP mapserve_slo_budget_remaining Slow-window error budget left per objective (negative = overspending).\n# TYPE mapserve_slo_budget_remaining gauge\n")
		for _, ob := range snap.Objectives {
			fmt.Fprintf(w, "mapserve_slo_budget_remaining{objective=%q} %.6f\n", ob.Name, ob.BudgetRemaining)
		}
		fmt.Fprintf(w, "# HELP mapserve_slo_breached Whether the objective is currently breached.\n# TYPE mapserve_slo_breached gauge\n")
		for _, ob := range snap.Objectives {
			fmt.Fprintf(w, "mapserve_slo_breached{objective=%q} %d\n", ob.Name, boolToInt(ob.Breached))
		}
		fmt.Fprintf(w, "# HELP mapserve_slo_breaches_total Breach transitions per objective.\n# TYPE mapserve_slo_breaches_total counter\n")
		for _, ob := range snap.Objectives {
			fmt.Fprintf(w, "mapserve_slo_breaches_total{objective=%q} %d\n", ob.Name, ob.Breaches)
		}
		fmt.Fprintf(w, "# HELP mapserve_slo_captures_total Evidence captures triggered per objective.\n# TYPE mapserve_slo_captures_total counter\n")
		for _, ob := range snap.Objectives {
			fmt.Fprintf(w, "mapserve_slo_captures_total{objective=%q} %d\n", ob.Name, ob.Captures)
		}
	}
	if m.tenantStats != nil {
		tenants := m.tenantStats()
		fmt.Fprintf(w, "# HELP mapserve_tenant_requests_total Sync requests per tenant (bounded cardinality; overflow folds into \"other\").\n# TYPE mapserve_tenant_requests_total counter\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "mapserve_tenant_requests_total{tenant=%q} %d\n", t.Tenant, t.Requests)
		}
		fmt.Fprintf(w, "# HELP mapserve_tenant_cache_hits_total Cache-served requests per tenant.\n# TYPE mapserve_tenant_cache_hits_total counter\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "mapserve_tenant_cache_hits_total{tenant=%q} %d\n", t.Tenant, t.CacheHits)
		}
		fmt.Fprintf(w, "# HELP mapserve_tenant_search_milliseconds_total Search wall time spent per tenant.\n# TYPE mapserve_tenant_search_milliseconds_total counter\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "mapserve_tenant_search_milliseconds_total{tenant=%q} %d\n", t.Tenant, t.SearchMillis)
		}
		fmt.Fprintf(w, "# HELP mapserve_tenant_queue_rejections_total 429 rejections per tenant.\n# TYPE mapserve_tenant_queue_rejections_total counter\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "mapserve_tenant_queue_rejections_total{tenant=%q} %d\n", t.Tenant, t.QueueRejections)
		}
	}
	fmt.Fprintf(w, "# HELP mapserve_search_latency_seconds Joint search wall time.\n# TYPE mapserve_search_latency_seconds histogram\n")
	var cum int64
	for i, ub := range latencyBuckets {
		cum += m.latCounts[i].Load()
		fmt.Fprintf(w, "mapserve_search_latency_seconds_bucket{le=\"%g\"} %d", ub, cum)
		m.writeExemplar(w, i)
		io.WriteString(w, "\n")
	}
	cum += m.latCounts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "mapserve_search_latency_seconds_bucket{le=\"+Inf\"} %d", cum)
	m.writeExemplar(w, numLatencyBuckets)
	io.WriteString(w, "\n")
	fmt.Fprintf(w, "mapserve_search_latency_seconds_sum %.9f\n", float64(m.latSumNs.Load())/1e9)
	fmt.Fprintf(w, "mapserve_search_latency_seconds_count %d\n", m.latCount.Load())
	fmt.Fprintf(w, "# HELP mapserve_stage_duration_seconds Request time per processing stage.\n# TYPE mapserve_stage_duration_seconds histogram\n")
	for stage := 0; stage < numStages; stage++ {
		name := stageNames[stage]
		var c int64
		for i, ub := range latencyBuckets {
			c += m.stageCounts[stage][i].Load()
			fmt.Fprintf(w, "mapserve_stage_duration_seconds_bucket{stage=%q,le=\"%g\"} %d\n", name, ub, c)
		}
		c += m.stageCounts[stage][len(latencyBuckets)].Load()
		fmt.Fprintf(w, "mapserve_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", name, c)
		fmt.Fprintf(w, "mapserve_stage_duration_seconds_sum{stage=%q} %.9f\n", name, float64(m.stageSumNs[stage].Load())/1e9)
		fmt.Fprintf(w, "mapserve_stage_duration_seconds_count{stage=%q} %d\n", name, m.stageCount[stage].Load())
	}
}

// writeExemplar appends bucket i's exemplar in OpenMetrics syntax
// (" # {trace_id=\"…\"} value timestamp"), or nothing when the bucket
// has none. Prometheus ≥ 2.26 ingests these; plain text-format parsers
// treat the suffix as a comment.
func (m *metrics) writeExemplar(w io.Writer, i int) {
	ex := m.latExemplars[i].Load()
	if ex == nil {
		return
	}
	fmt.Fprintf(w, " # {trace_id=%q} %.9f %.3f", ex.traceID, ex.value, float64(ex.unixMS)/1e3)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Snapshot returns the counters as a flat map — the expvar surface
// published by cmd/mapserve.
func (m *metrics) Snapshot() map[string]any {
	out := map[string]any{
		"map_requests":            m.mapRequests.Load(),
		"pareto_requests":         m.paretoRequests.Load(),
		"conflict_requests":       m.conflictRequests.Load(),
		"simulate_requests":       m.simulateRequests.Load(),
		"verify_requests":         m.verifyRequests.Load(),
		"batch_requests":          m.batchRequests.Load(),
		"jobs_requests":           m.jobsRequests.Load(),
		"peer_lookup_requests":    m.peerLookupRequests.Load(),
		"peer_fill_requests":      m.peerFillRequests.Load(),
		"peer_status_requests":    m.peerStatusRequests.Load(),
		"cluster_status_requests": m.clusterStatusRequests.Load(),
		"cache_hits":              m.cacheHits.Load(),
		"cache_misses":            m.cacheMisses.Load(),
		"verify_cache_hits":       m.verifyCacheHits.Load(),
		"verify_cache_misses":     m.verifyCacheMisses.Load(),
		"searches":                m.searches.Load(),
		"singleflight_deduped":    m.deduped.Load(),
		"rejected":                m.rejected.Load(),
		"timeouts":                m.timeouts.Load(),
		"failures":                m.failures.Load(),
		"inflight_searches":       m.inflight.Load(),
		"queued_requests":         m.queued.Load(),
		"search_latency_count":    m.latCount.Load(),
		"search_latency_sum_s":    float64(m.latSumNs.Load()) / 1e9,
	}
	out["search_pruned_orbit"] = m.prunedOrbit.Load()
	out["search_pruned_lower_bound"] = m.prunedLowerBound.Load()
	out["search_pruned_incumbent"] = m.prunedIncumbent.Load()
	out["search_space_candidates"] = m.spaceCandidates.Load()
	out["search_schedule_candidates"] = m.scheduleCandidates.Load()
	out["search_cost_levels"] = m.costLevels.Load()
	out["search_inner_searches"] = m.innerSearches.Load()
	// The Prometheus-only derived values mirror into the expvar surface
	// so /debug/vars and /metrics never disagree: the hit ratio (same
	// hits+misses > 0 gate) and the cumulative histogram buckets.
	if hits, misses := m.cacheHits.Load(), m.cacheMisses.Load(); hits+misses > 0 {
		out["cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if m.cacheStats != nil {
		entries, evictions, bytes := m.cacheStats()
		out["cache_entries"] = entries
		out["cache_evictions"] = evictions
		out["cache_bytes_estimate"] = bytes
	}
	if m.clustered {
		out["peer_forward_hit"] = m.peerForwardHit.Load()
		out["peer_forward_miss"] = m.peerForwardMiss.Load()
		out["peer_forward_shared"] = m.peerForwardShared.Load()
		out["peer_forward_error"] = m.peerForwardErrors.Load()
		out["peer_served_hit"] = m.peerServedHit.Load()
		out["peer_served_miss"] = m.peerServedMiss.Load()
		out["peer_served_shared"] = m.peerServedShared.Load()
		out["peer_fills_sent"] = m.peerFillsSent.Load()
		out["peer_fills_received"] = m.peerFillsRecv.Load()
		out["peer_fills_rejected"] = m.peerFillsRejected.Load()
		out["peer_fills_send_error"] = m.peerFillSendErrs.Load()
	}
	out["search_latency_buckets"] = cumulativeBuckets(&m.latCounts)
	// Exemplars mirror the /metrics bucket suffixes: always present so
	// the surface shape is stable, empty until a traced search lands.
	exemplars := map[string]any{}
	for _, ex := range m.exemplars() {
		exemplars[ex.Bucket] = map[string]any{
			"trace_id": ex.TraceID,
			"value_s":  ex.Value,
			"unix_ms":  ex.UnixMS,
		}
	}
	out["search_latency_exemplars"] = exemplars
	for stage := 0; stage < numStages; stage++ {
		out["stage_"+stageNames[stage]+"_count"] = m.stageCount[stage].Load()
		out["stage_"+stageNames[stage]+"_sum_s"] = float64(m.stageSumNs[stage].Load()) / 1e9
		out["stage_"+stageNames[stage]+"_buckets"] = cumulativeBuckets(&m.stageCounts[stage])
	}
	if m.traceCounters != nil {
		spans, dropped, finished := m.traceCounters()
		out["trace_spans"] = spans
		out["trace_spans_dropped"] = dropped
		out["traces"] = finished
	}
	if m.jobStats != nil {
		st := m.jobStats()
		out["jobs_submitted"] = st.Submitted
		out["jobs_deduped"] = st.Deduped
		out["jobs_rejected"] = st.Rejected
		out["jobs_done"] = st.Done
		out["jobs_failed"] = st.Failed
		out["jobs_cancelled"] = st.Cancelled
		out["jobs_resumed"] = st.Resumed
		out["jobs_requeued"] = st.Requeued
		out["jobs_queued"] = st.Queued
		out["jobs_running"] = st.Running
		out["jobs_forwarded"] = m.jobsForwarded.Load()
	}
	if m.sloStats != nil {
		snap := m.sloStats()
		burns := map[string]float64{}
		budget := map[string]float64{}
		breached := map[string]bool{}
		breaches := map[string]int64{}
		captures := map[string]int64{}
		for _, ob := range snap.Objectives {
			for _, wb := range ob.Burn {
				burns[ob.Name+"/"+wb.Window] = wb.Burn
			}
			budget[ob.Name] = ob.BudgetRemaining
			breached[ob.Name] = ob.Breached
			breaches[ob.Name] = ob.Breaches
			captures[ob.Name] = ob.Captures
		}
		out["slo_burn_rates"] = burns
		out["slo_budget_remaining"] = budget
		out["slo_breached"] = breached
		out["slo_breaches"] = breaches
		out["slo_captures"] = captures
	}
	if m.tenantStats != nil {
		requests := map[string]int64{}
		hits := map[string]int64{}
		searchMS := map[string]int64{}
		rejections := map[string]int64{}
		for _, t := range m.tenantStats() {
			requests[t.Tenant] = t.Requests
			hits[t.Tenant] = t.CacheHits
			searchMS[t.Tenant] = t.SearchMillis
			rejections[t.Tenant] = t.QueueRejections
		}
		out["tenant_requests"] = requests
		out["tenant_cache_hits"] = hits
		out["tenant_search_ms"] = searchMS
		out["tenant_queue_rejections"] = rejections
	}
	return out
}

// cumulativeBuckets renders one histogram's counts with the same
// cumulative le-keyed semantics the Prometheus exposition uses.
func cumulativeBuckets(counts *[numLatencyBuckets + 1]atomic.Int64) map[string]int64 {
	out := make(map[string]int64, numLatencyBuckets+1)
	var cum int64
	for i, ub := range latencyBuckets {
		cum += counts[i].Load()
		out[strconv.FormatFloat(ub, 'g', -1, 64)] = cum
	}
	cum += counts[numLatencyBuckets].Load()
	out["+Inf"] = cum
	return out
}
