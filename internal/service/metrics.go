package service

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/slo"
	"lodim/internal/trace"
)

// latencyBuckets are the upper bounds (seconds) of the search-latency
// and stage histograms, log-spaced from "cache-adjacent" to "deep
// search". An implicit +Inf bucket catches the rest.
var latencyBuckets = [numLatencyBuckets]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

const numLatencyBuckets = 7

// bucketLabels are the le label values of the histogram buckets, +Inf
// last — shared by /metrics and the /debug/requests exemplar table.
var bucketLabels = func() (out [numLatencyBuckets + 1]string) {
	for i, ub := range latencyBuckets {
		out[i] = strconv.FormatFloat(ub, 'g', -1, 64)
	}
	out[numLatencyBuckets] = "+Inf"
	return out
}()

// Label tables of the labelled counter families. A counter's index in
// its metrics array is its label value's index here, and the renderer
// walks the table, so each label value is written down once.
var (
	endpointNames      = [...]string{"map", "pareto", "conflict", "simulate", "verify", "batch", "jobs", "peer_lookup", "peer_fill", "peer_status", "cluster_status"}
	forwardOutcomes    = [...]string{"hit", "miss", "shared", "error"}
	servedDispositions = [...]string{"hit", "miss", "shared"}
	fillKinds          = [...]string{"sent", "received", "rejected", "send_error"}
	pruneRules         = [...]string{"orbit", "lower_bound", "incumbent"}
	jobEvents          = [...]string{"submitted", "deduped", "rejected", "done", "failed", "cancelled", "resumed", "requeued"}
)

// Indexes into metrics.forward and metrics.served (which stops before
// peerError), and into metrics.fills.
const (
	peerHit = iota
	peerMiss
	peerShared
	peerError
)

const (
	fillSent = iota
	fillReceived
	fillRejected
	fillSendError
)

// metrics aggregates the service counters. All fields are atomics so
// the hot request path never takes a lock for observability.
type metrics struct {
	requests [len(endpointNames)]atomic.Int64

	verifyCacheHits   atomic.Int64
	verifyCacheMisses atomic.Int64

	cacheHits   atomic.Int64 // map and Pareto requests
	cacheMisses atomic.Int64
	searches    atomic.Int64 // joint and Pareto searches executed
	deduped     atomic.Int64 // requests that joined an in-progress flight

	rejected atomic.Int64 // admission-control rejections (429)
	timeouts atomic.Int64 // requests ended by deadline/cancellation
	failures atomic.Int64 // internal errors (500)

	inflight atomic.Int64 // searches holding a pool slot right now
	queued   atomic.Int64 // requests waiting for a slot right now

	latency histogram
	// latExemplars retains, per latency bucket, the most recently
	// observed traced search — rendered in OpenMetrics exemplar syntax
	// on /metrics and as the click-through table on /debug/requests.
	// One pointer swap per search; no lock.
	latExemplars [numLatencyBuckets + 1]atomic.Pointer[trace.Exemplar]

	// stages holds the per-stage request-timing histograms, indexed by
	// the timing.go stage constants.
	stages [numStages]histogram

	// Search-effort counters aggregated from schedule.SearchStats.
	pruned             [len(pruneRules)]atomic.Int64
	spaceCandidates    atomic.Int64
	scheduleCandidates atomic.Int64
	costLevels         atomic.Int64
	innerSearches      atomic.Int64

	// Cluster-tier counters. forward is the non-owner side (what
	// happened when this node forwarded a key to its owner); served is
	// the owner side (dispositions of peer lookups this node answered);
	// fills track /peer/v1/fill traffic both ways. Rendered only when
	// clustered is true, so a single-node /metrics stays unchanged.
	clustered bool
	forward   [len(forwardOutcomes)]atomic.Int64
	served    [len(servedDispositions)]atomic.Int64
	fills     [len(fillKinds)]atomic.Int64

	// jobsForwarded counts job-endpoint requests this node proxied to
	// their ring owner (the job tier's analogue of forward).
	jobsForwarded atomic.Int64

	// The readers below are wired by service.New, so the metrics layer
	// needs no cache, tracer, job, SLO or tenant dependency; each one
	// left nil gates its families off. cacheStats reports the LRU's
	// (entries, evictions, bytes-estimate); traceCounters the tracer's
	// (started, dropped, finished) span/trace counts; jobStats the async
	// job tier; sloStats the SLO engine; tenantStats the bounded
	// per-tenant usage table sorted by tenant name.
	cacheStats    func() (entries, evictions, bytes int64)
	traceCounters func() (started, dropped, finished int64)
	jobStats      func() jobs.Stats
	sloStats      func() slo.Snapshot
	tenantStats   func() []cluster.TenantUsage
}

// histogram is one latency histogram over latencyBuckets; the last
// count is the +Inf bucket.
type histogram struct {
	counts [numLatencyBuckets + 1]atomic.Int64
	sumNs  atomic.Int64
	count  atomic.Int64
}

// observe records one duration and returns its bucket.
func (h *histogram) observe(d time.Duration) int {
	i := 0
	for i < numLatencyBuckets && d.Seconds() > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.count.Add(1)
	return i
}

// requestCounter returns the per-endpoint request counter; the
// instrument wrapper is its only incrementer, so each request counts
// exactly once on every path.
func (m *metrics) requestCounter(endpoint string) *atomic.Int64 {
	for i, name := range endpointNames {
		if name == endpoint {
			return &m.requests[i]
		}
	}
	panic("service: unknown endpoint " + endpoint)
}

// requestsTotal sums every endpoint counter — the node-level request
// count the cluster status page reports.
func (m *metrics) requestsTotal() int64 {
	var n int64
	for i := range m.requests {
		n += m.requests[i].Load()
	}
	return n
}

// observeTimer folds a finished request's stage timings into the
// per-stage histograms.
func (m *metrics) observeTimer(t *reqTimer) {
	for stage := range m.stages {
		if d, ok := t.duration(stage); ok {
			m.stages[stage].observe(d)
		}
	}
}

// observeSearchStats folds one search's effort report into the
// aggregate pruning counters.
func (m *metrics) observeSearchStats(st *schedule.SearchStats) {
	if st == nil {
		return
	}
	for i, n := range [len(pruneRules)]int64{st.PrunedOrbit, st.PrunedLowerBound, st.PrunedIncumbent} {
		m.pruned[i].Add(n)
	}
	m.spaceCandidates.Add(st.SpaceCandidates)
	m.scheduleCandidates.Add(st.ScheduleCandidates)
	m.costLevels.Add(st.CostLevels)
	m.innerSearches.Add(st.InnerSearches)
}

// observeSearch records one search latency in the histogram and, when
// the request carries a trace, retains it as the bucket's exemplar.
func (m *metrics) observeSearch(d time.Duration, traceID string) {
	idx := m.latency.observe(d)
	if traceID != "" {
		m.latExemplars[idx].Store(&trace.Exemplar{
			Bucket:  bucketLabels[idx],
			TraceID: traceID,
			ValueMS: float64(d.Nanoseconds()) / 1e6,
			UnixMS:  time.Now().UnixMilli(),
		})
	}
}

// exemplars returns the retained search-latency exemplars in bucket
// order — the /debug/requests click-through table.
func (m *metrics) exemplars() []trace.Exemplar {
	var out []trace.Exemplar
	for i := range m.latExemplars {
		if ex := m.latExemplars[i].Load(); ex != nil {
			out = append(out, *ex)
		}
	}
	return out
}

// family is one metric family of the exposition: name, help text and
// type, an optional gate (nil: always rendered) and the writer that
// appends its samples, read off one scrape.
type family struct {
	name, help, typ string
	gate            func(s *scrape) bool
	samples         func(s *scrape, name string)
}

// single is a family of one unlabelled integer sample.
func single(name, help, typ string, gate func(*scrape) bool, read func(*scrape) int64) family {
	return family{name, help, typ, gate, func(s *scrape, name string) {
		s.series(name, "")
		s.appendInt(read(s))
	}}
}

// labelled is a counter family with one sample per value of label,
// read by the value's index.
func labelled(name, help, label string, values []string, gate func(*scrape) bool, read func(s *scrape, i int) int64) family {
	return family{name, help, "counter", gate, func(s *scrape, name string) {
		for i, v := range values {
			s.series(name, "", label, v)
			s.appendInt(read(s, i))
		}
	}}
}

// perTenant is a counter family with one sample per tenant.
func perTenant(name, help string, read func(t *cluster.TenantUsage) int64) family {
	return family{name, help, "counter", tenantsOn, func(s *scrape, name string) {
		for i := range s.tenants {
			s.series(name, "", "tenant", s.tenants[i].Tenant)
			s.appendInt(read(&s.tenants[i]))
		}
	}}
}

// perObjective is an SLO family with one sample per objective; value
// appends the sample's value.
func perObjective(name, help, typ string, value func(s *scrape, ob *slo.ObjectiveSnapshot)) family {
	return family{name, help, typ, sloOn, func(s *scrape, name string) {
		for i := range s.slo.Objectives {
			s.series(name, "", "objective", s.slo.Objectives[i].Name)
			value(s, &s.slo.Objectives[i])
		}
	}}
}

func clusterOn(s *scrape) bool { return s.clustered }
func jobsOn(s *scrape) bool    { return s.jobStats != nil }
func tenantsOn(s *scrape) bool { return s.tenantStats != nil }
func cacheOn(s *scrape) bool   { return s.cacheStats != nil }
func tracesOn(s *scrape) bool  { return s.traceCounters != nil }
func sloOn(s *scrape) bool     { return s.sloStats != nil }

// registry is the /metrics exposition: every family defined once, and
// rendered in this order.
var registry = []family{
	labelled("mapserve_requests_total", "Requests received, by endpoint.", "endpoint", endpointNames[:], nil,
		func(s *scrape, i int) int64 { return s.requests[i].Load() }),
	single("mapserve_cache_hits_total", "Map and Pareto requests answered from the canonical result cache.", "counter", nil, func(s *scrape) int64 { return s.cacheHits.Load() }),
	single("mapserve_cache_misses_total", "Map and Pareto requests that required a search.", "counter", nil, func(s *scrape) int64 { return s.cacheMisses.Load() }),
	single("mapserve_verify_cache_hits_total", "Verify requests answered from the canonical certificate cache.", "counter", nil, func(s *scrape) int64 { return s.verifyCacheHits.Load() }),
	single("mapserve_verify_cache_misses_total", "Verify requests that ran the certification engine.", "counter", nil, func(s *scrape) int64 { return s.verifyCacheMisses.Load() }),
	single("mapserve_searches_total", "Joint (S, Pi) and Pareto-front searches actually executed.", "counter", nil, func(s *scrape) int64 { return s.searches.Load() }),
	single("mapserve_singleflight_deduped_total", "Map and Pareto requests that joined an identical in-progress search.", "counter", nil, func(s *scrape) int64 { return s.deduped.Load() }),
	single("mapserve_rejected_total", "Requests rejected by admission control.", "counter", nil, func(s *scrape) int64 { return s.rejected.Load() }),
	single("mapserve_timeouts_total", "Requests ended by deadline or cancellation.", "counter", nil, func(s *scrape) int64 { return s.timeouts.Load() }),
	single("mapserve_failures_total", "Requests failed with an internal error.", "counter", nil, func(s *scrape) int64 { return s.failures.Load() }),
	single("mapserve_inflight_searches", "Searches holding a worker-pool slot.", "gauge", nil, func(s *scrape) int64 { return s.inflight.Load() }),
	single("mapserve_queued_requests", "Requests waiting for a worker-pool slot.", "gauge", nil, func(s *scrape) int64 { return s.queued.Load() }),
	{"mapserve_cache_hit_ratio", "Cache hits over cacheable map and Pareto requests.", "gauge",
		func(s *scrape) bool { return s.cacheHits.Load()+s.cacheMisses.Load() > 0 },
		func(s *scrape, name string) {
			hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
			s.series(name, "")
			s.appendFloat(float64(hits)/float64(hits+misses), 6)
		}},
	single("mapserve_cache_entries", "Resident canonical cache entries.", "gauge", cacheOn, func(s *scrape) int64 { return s.cacheEntries }),
	single("mapserve_cache_evictions_total", "Entries evicted by LRU capacity pressure.", "counter", cacheOn, func(s *scrape) int64 { return s.cacheEvictions }),
	single("mapserve_cache_bytes_estimate", "Estimated bytes held by resident cache entries.", "gauge", cacheOn, func(s *scrape) int64 { return s.cacheBytes }),
	labelled("mapserve_peer_forward_total", "Lookups this node forwarded to key owners, by outcome.", "outcome", forwardOutcomes[:], clusterOn,
		func(s *scrape, i int) int64 { return s.forward[i].Load() }),
	labelled("mapserve_peer_served_total", "Peer lookups this node answered as owner, by disposition.", "disposition", servedDispositions[:], clusterOn,
		func(s *scrape, i int) int64 { return s.served[i].Load() }),
	labelled("mapserve_peer_fills_total", "Peer cache-fill traffic, by kind.", "kind", fillKinds[:], clusterOn,
		func(s *scrape, i int) int64 { return s.fills[i].Load() }),
	labelled("mapserve_search_pruned_total", "Search candidates removed before evaluation, by pruning rule.", "rule", pruneRules[:], nil,
		func(s *scrape, i int) int64 { return s.pruned[i].Load() }),
	single("mapserve_search_space_candidates_total", "Space mappings enumerated by the joint search.", "counter", nil, func(s *scrape) int64 { return s.spaceCandidates.Load() }),
	single("mapserve_search_schedule_candidates_total", "Schedule vectors meeting every dependence (PiD >= 1) that the level walks visited.", "counter", nil, func(s *scrape) int64 { return s.scheduleCandidates.Load() }),
	single("mapserve_search_cost_levels_total", "Objective levels stepped through by Procedure 5.1.", "counter", nil, func(s *scrape) int64 { return s.costLevels.Load() }),
	single("mapserve_search_inner_searches_total", "Space mappings whose schedules the joint and Pareto searches tested.", "counter", nil, func(s *scrape) int64 { return s.innerSearches.Load() }),
	single("mapserve_trace_spans_total", "Trace spans started.", "counter", tracesOn, func(s *scrape) int64 { return s.spans }),
	single("mapserve_trace_spans_dropped_total", "Spans dropped by the per-trace span cap.", "counter", tracesOn, func(s *scrape) int64 { return s.spansDropped }),
	single("mapserve_traces_total", "Traces completed.", "counter", tracesOn, func(s *scrape) int64 { return s.traces }),
	labelled("mapserve_jobs_total", "Async job lifecycle events, by kind.", "event", jobEvents[:], jobsOn,
		func(s *scrape, i int) int64 {
			st := &s.jobs
			return [len(jobEvents)]int64{st.Submitted, st.Deduped, st.Rejected, st.Done, st.Failed, st.Cancelled, st.Resumed, st.Requeued}[i]
		}),
	single("mapserve_jobs_queued", "Jobs waiting for a job worker.", "gauge", jobsOn, func(s *scrape) int64 { return s.jobs.Queued }),
	single("mapserve_jobs_running", "Jobs holding a job worker.", "gauge", jobsOn, func(s *scrape) int64 { return s.jobs.Running }),
	// A clustered node without a job tier still proxies job requests to
	// their owner, so this family is on for either.
	single("mapserve_jobs_forwarded_total", "Job requests proxied to their ring owner.", "counter",
		func(s *scrape) bool { return s.clustered || s.jobStats != nil },
		func(s *scrape) int64 { return s.jobsForwarded.Load() }),
	{"mapserve_slo_burn_rate", "Error-budget burn rate per objective and rolling window (1 = sustainable).", "gauge", sloOn,
		func(s *scrape, name string) {
			for _, ob := range s.slo.Objectives {
				for _, wb := range ob.Burn {
					s.series(name, "", "objective", ob.Name, "window", wb.Window)
					s.appendFloat(wb.Burn, 6)
				}
			}
		}},
	perObjective("mapserve_slo_budget_remaining", "Slow-window error budget left per objective (negative = overspending).", "gauge",
		func(s *scrape, ob *slo.ObjectiveSnapshot) { s.appendFloat(ob.BudgetRemaining, 6) }),
	perObjective("mapserve_slo_breached", "Whether the objective is currently breached.", "gauge",
		func(s *scrape, ob *slo.ObjectiveSnapshot) {
			var v int64
			if ob.Breached {
				v = 1
			}
			s.appendInt(v)
		}),
	perObjective("mapserve_slo_breaches_total", "Breach transitions per objective.", "counter",
		func(s *scrape, ob *slo.ObjectiveSnapshot) { s.appendInt(ob.Breaches) }),
	perObjective("mapserve_slo_captures_total", "Evidence captures triggered per objective.", "counter",
		func(s *scrape, ob *slo.ObjectiveSnapshot) { s.appendInt(ob.Captures) }),
	perTenant("mapserve_tenant_requests_total", `Sync requests per tenant (bounded cardinality; overflow folds into "other").`,
		func(t *cluster.TenantUsage) int64 { return t.Requests }),
	perTenant("mapserve_tenant_cache_hits_total", "Cache-served requests per tenant.",
		func(t *cluster.TenantUsage) int64 { return t.CacheHits }),
	perTenant("mapserve_tenant_search_milliseconds_total", "Search wall time spent per tenant.",
		func(t *cluster.TenantUsage) int64 { return t.SearchMillis }),
	perTenant("mapserve_tenant_queue_rejections_total", "429 rejections per tenant.",
		func(t *cluster.TenantUsage) int64 { return t.QueueRejections }),
	{"mapserve_search_latency_seconds", "Joint (S, Pi) and Pareto-front search wall time.", "histogram", nil,
		func(s *scrape, name string) { s.histogram(name, "", "", &s.latency, &s.latExemplars) }},
	{"mapserve_stage_duration_seconds", "Request time per processing stage.", "histogram", nil,
		func(s *scrape, name string) {
			for stage := range s.stages {
				s.histogram(name, "stage", stageNames[stage], &s.stages[stage], nil)
			}
		}},
}

// scrape is one render of the registry: the counters, the snapshots of
// the wired readers (taken once, so the families of one tier agree),
// and the output buffer, reused across scrapes through scrapePool.
type scrape struct {
	*metrics
	buf                                      []byte
	cacheEntries, cacheEvictions, cacheBytes int64
	spans, spansDropped, traces              int64
	jobs                                     jobs.Stats
	slo                                      slo.Snapshot
	tenants                                  []cluster.TenantUsage
}

var scrapePool = sync.Pool{New: func() any { return new(scrape) }}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (the GET /metrics payload).
func (m *metrics) WritePrometheus(w io.Writer) {
	s := scrapePool.Get().(*scrape)
	s.metrics = m
	if m.cacheStats != nil {
		s.cacheEntries, s.cacheEvictions, s.cacheBytes = m.cacheStats()
	}
	if m.traceCounters != nil {
		s.spans, s.spansDropped, s.traces = m.traceCounters()
	}
	if m.jobStats != nil {
		s.jobs = m.jobStats()
	}
	if m.sloStats != nil {
		s.slo = m.sloStats()
	}
	if m.tenantStats != nil {
		s.tenants = m.tenantStats()
	}
	for i := range registry {
		f := &registry[i]
		if f.gate != nil && !f.gate(s) {
			continue
		}
		s.buf = append(s.buf, "# HELP "...)
		s.buf = append(s.buf, f.name...)
		s.buf = append(s.buf, ' ')
		s.buf = append(s.buf, f.help...)
		s.buf = append(s.buf, "\n# TYPE "...)
		s.buf = append(s.buf, f.name...)
		s.buf = append(s.buf, ' ')
		s.buf = append(s.buf, f.typ...)
		s.buf = append(s.buf, '\n')
		f.samples(s, f.name)
	}
	w.Write(s.buf)
	*s = scrape{buf: s.buf[:0]}
	scrapePool.Put(s)
}

// series appends a sample's series name (name+suffix), its label pairs
// (k1, v1, k2, v2, …; values quoted, a pair with an empty key skipped)
// and the space before the value.
func (s *scrape) series(name, suffix string, kv ...string) {
	s.buf = append(s.buf, name...)
	s.buf = append(s.buf, suffix...)
	sep := byte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i] == "" {
			continue
		}
		s.buf = append(s.buf, sep)
		sep = ','
		s.buf = append(s.buf, kv[i]...)
		s.buf = append(s.buf, '=')
		s.buf = strconv.AppendQuote(s.buf, kv[i+1])
	}
	if sep == ',' {
		s.buf = append(s.buf, '}')
	}
	s.buf = append(s.buf, ' ')
}

func (s *scrape) appendInt(v int64) {
	s.buf = strconv.AppendInt(s.buf, v, 10)
	s.buf = append(s.buf, '\n')
}

func (s *scrape) appendFloat(v float64, prec int) {
	s.buf = strconv.AppendFloat(s.buf, v, 'f', prec, 64)
	s.buf = append(s.buf, '\n')
}

// histogram appends one histogram series: its cumulative buckets, _sum
// and _count, under the label pair (label, value) when label is set.
// With exs, a bucket holding an exemplar carries it in OpenMetrics
// syntax (` # {trace_id="…"} value timestamp`); Prometheus ≥ 2.26
// ingests these, plain text-format parsers treat the suffix as a
// comment.
func (s *scrape) histogram(name, label, value string, h *histogram, exs *[numLatencyBuckets + 1]atomic.Pointer[trace.Exemplar]) {
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.series(name, "_bucket", label, value, "le", bucketLabels[i])
		s.buf = strconv.AppendInt(s.buf, cum, 10)
		if exs != nil {
			if ex := exs[i].Load(); ex != nil {
				s.buf = append(s.buf, " # {trace_id="...)
				s.buf = strconv.AppendQuote(s.buf, ex.TraceID)
				s.buf = append(s.buf, "} "...)
				s.buf = strconv.AppendFloat(s.buf, ex.ValueMS/1e3, 'f', 9, 64)
				s.buf = append(s.buf, ' ')
				s.buf = strconv.AppendFloat(s.buf, float64(ex.UnixMS)/1e3, 'f', 3, 64)
			}
		}
		s.buf = append(s.buf, '\n')
	}
	s.series(name, "_sum", label, value)
	s.appendFloat(float64(h.sumNs.Load())/1e9, 9)
	s.series(name, "_count", label, value)
	s.appendInt(h.count.Load())
}
