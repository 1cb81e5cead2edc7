package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"lodim/internal/cli"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/slo"
	"lodim/internal/systolic"
	"lodim/internal/trace"
	"lodim/internal/uda"
	"lodim/internal/verify"
)

// Input ceilings: the service refuses problems whose validation or
// simulation would enumerate unbounded state. Searches themselves are
// additionally bounded by the per-request deadline.
const (
	maxRequestDim  = 12      // algorithm dimension n
	maxRequestDeps = 64      // dependence count m
	maxIndexPoints = 1 << 20 // |J| ceiling for simulate/conflict enumeration
	maxBound       = 1 << 20 // single μ_i ceiling
)

// Config sizes the service.
type Config struct {
	// Pool is the number of searches/simulations that may run
	// concurrently (≤ 0 selects GOMAXPROCS).
	Pool int
	// Queue bounds the backlog: at most Pool+Queue requests may be
	// waiting for a slot at once; arrivals beyond that are answered
	// 429 immediately (0 selects 64; negative means "no extra queue",
	// i.e. at most Pool waiters).
	Queue int
	// CacheSize bounds the canonical result cache in entries
	// (≤ 0 selects 1024).
	CacheSize int
	// SearchWorkers is the Schedule.Workers fan-out of each joint
	// search (≤ 0 selects GOMAXPROCS). Results are deterministic at any
	// value.
	SearchWorkers int
	// DefaultTimeout applies when a request carries no deadline of its
	// own (0 selects 30s). MaxTimeout caps request-supplied deadlines
	// (0 selects 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Logger, when non-nil, receives one structured access-log line per
	// HTTP request (id, endpoint, status, cache disposition, stage
	// timings). Nil disables access logging.
	Logger *slog.Logger
	// TraceBuffer, when > 0, enables hierarchical request tracing and
	// sizes the ring of completed traces kept for GET /debug/requests.
	// 0 disables tracing entirely (the disabled path costs one nil
	// check per span site).
	TraceBuffer int
	// Cluster, when non-nil, federates this service with its peers:
	// canonical keys are sharded over a consistent-hash ring, non-owners
	// forward to owners and cache-fill locally, and the peer protocol
	// endpoints are served (see cluster.go). Nil runs single-node,
	// byte-for-byte identical to the pre-cluster behavior.
	Cluster *ClusterConfig
	// Jobs, when non-nil, enables the durable asynchronous job tier
	// (POST /v1/jobs and friends, see jobs.go): a spool-backed fair
	// queue whose workers run map/verify problems through the same
	// engines as the synchronous endpoints. Nil serves 404 on the job
	// endpoints.
	Jobs *JobsConfig
	// SLO, when non-nil with at least one objective enabled, runs the
	// rolling-window burn-rate engine over sync-endpoint outcomes: a
	// breach logs one alert line, flips /healthz to "degraded" and
	// triggers a rate-limited evidence capture (see slo.go).
	SLO *SLOConfig
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	return c
}

// Sentinel errors of the admission/lifecycle layer.
var (
	// ErrOverloaded reports that the worker pool and its queue are
	// full — the HTTP layer maps it to 429.
	ErrOverloaded = errors.New("service: overloaded, retry later")
	// ErrShuttingDown reports that the service no longer accepts work —
	// mapped to 503.
	ErrShuttingDown = errors.New("service: shutting down")
)

// BadRequestError wraps a validation failure — mapped to 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &BadRequestError{Err: fmt.Errorf(format, args...)}
}

// CacheStatus tells a map caller how its result was produced.
type CacheStatus string

const (
	CacheHit    CacheStatus = "hit"    // served from the canonical cache
	CacheMiss   CacheStatus = "miss"   // this request executed the search
	CacheShared CacheStatus = "shared" // joined an identical in-progress search

	// Clustered statuses: the key's ring owner answered and this node
	// cache-filled the result. The suffix is the owner's own disposition.
	CachePeerHit    CacheStatus = "peer_hit"
	CachePeerMiss   CacheStatus = "peer_miss"
	CachePeerShared CacheStatus = "peer_shared"
)

// Service is the concurrent mapping-as-a-service engine. Create with
// New, serve over HTTP with NewHandler, stop with Close.
type Service struct {
	cfg     Config
	cache   *lruCache
	flights *flightGroup
	sem     chan struct{}
	met     *metrics
	closed  chan struct{}
	closing sync.Once
	admit   sync.Mutex     // serializes begin's closed check + wg.Add against Close
	wg      sync.WaitGroup // in-flight requests, drained by Close
	started time.Time      // for Status().Uptime

	// tracer and traces are non-nil iff Config.TraceBuffer > 0: the
	// tracer mints one trace per HTTP request, the registry rings the
	// last TraceBuffer completed ones for the /debug/requests inspector.
	tracer *trace.Tracer
	traces *trace.Registry

	// clu is non-nil iff Config.Cluster was set: the consistent-hash
	// ring, the peer client, and the passive peer health tracker.
	clu *clusterState

	// jobsMgr is non-nil iff Config.Jobs was set: the durable async
	// job manager (spool, fair queue, worker pool — see jobs.go).
	jobsMgr *jobs.Manager

	// slo is non-nil iff Config.SLO enabled at least one objective:
	// the burn-rate engine plus alerting/evidence glue (see slo.go).
	slo *sloState

	// tenants is the bounded per-tenant usage table (always on — an
	// absent tenant header accounts under "anonymous").
	tenants *tenantTable

	// searchJoint is the search engine; tests substitute it to make
	// concurrency deterministic. Production always uses
	// schedule.FindJointMappingContext.
	searchJoint func(ctx context.Context, algo *uda.Algorithm, dims int, opts *schedule.SpaceOptions) (*schedule.JointResult, error)
	// searchPareto is the multi-objective engine behind /v1/pareto,
	// substitutable like searchJoint. Production always uses
	// schedule.FindParetoContext.
	searchPareto func(ctx context.Context, algo *uda.Algorithm, dims int, opts *schedule.ParetoOptions) (*schedule.ParetoResult, error)
}

// New builds a Service from the config (zero value = all defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:          cfg,
		cache:        newLRUCache(cfg.CacheSize),
		flights:      newFlightGroup(),
		sem:          make(chan struct{}, cfg.Pool),
		met:          &metrics{},
		closed:       make(chan struct{}),
		started:      time.Now(),
		searchJoint:  schedule.FindJointMappingContext,
		searchPareto: schedule.FindParetoContext,
	}
	s.flights.onJoin = func() { s.met.deduped.Add(1) }
	s.met.cacheStats = s.cache.Stats
	s.tenants = newTenantTable(defaultTenantLimit)
	s.met.tenantStats = s.tenants.snapshot
	if cfg.Cluster != nil {
		clu, err := newClusterState(cfg.Cluster)
		if err != nil {
			// Cluster misconfiguration (duplicate IDs, empty membership)
			// is a programming/deployment error callers must catch before
			// New — cmd/mapserve validates the flag set by building the
			// ring itself first.
			panic("service: invalid cluster config: " + err.Error())
		}
		s.clu = clu
		s.met.clustered = true
	}
	if cfg.TraceBuffer > 0 {
		s.tracer = trace.New(trace.Config{})
		s.traces = trace.NewRegistry(cfg.TraceBuffer)
		s.tracer.AddSink(s.traces.Add)
		s.met.traceCounters = s.tracer.Counters
	}
	if cfg.Jobs != nil {
		mgr, err := jobs.Open(jobs.Config{
			Dir:            cfg.Jobs.Dir,
			Workers:        cfg.Jobs.Workers,
			PerTenantQueue: cfg.Jobs.PerTenantQueue,
			Exec:           s.executeJob,
			Logger:         cfg.Logger,
		})
		if err != nil {
			// Like cluster misconfiguration: an unusable spool directory is
			// a deployment error callers must catch before New —
			// cmd/mapserve creates and probes the directory at flag time.
			panic("service: job tier: " + err.Error())
		}
		s.jobsMgr = mgr
		s.met.jobStats = mgr.Stats
	}
	if cfg.SLO.enabled() {
		st, err := newSLOState(s, cfg.SLO)
		if err != nil {
			// Same contract as cluster/jobs misconfiguration: cmd/mapserve
			// validates the flags (via slo.NewEngine) before New.
			panic("service: invalid slo config: " + err.Error())
		}
		s.slo = st
		s.met.sloStats = st.eng.Snapshot
	}
	return s
}

// Tracer returns the request tracer, or nil when tracing is disabled.
// Callers may AddSink on it (cmd/mapserve attaches the slowest-trace
// directory sink this way).
func (s *Service) Tracer() *trace.Tracer { return s.tracer }

// TraceRegistry returns the completed-trace ring, or nil when tracing
// is disabled.
func (s *Service) TraceRegistry() *trace.Registry { return s.traces }

// DebugHandler serves the /debug/requests trace inspector. It is not
// part of NewHandler: the inspector exposes request internals, so
// cmd/mapserve mounts it only on the private pprof listener.
func (s *Service) DebugHandler() http.Handler {
	if s.traces == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "tracing disabled (start the service with a trace buffer)", http.StatusNotFound)
		})
	}
	return trace.Handler(s.traces, func() any { return s.Status() }, s.met.exemplars)
}

// Status is the one health/identity snapshot shared by the /healthz
// probe and the /debug/requests inspector.
type Status struct {
	Status        string    `json:"status"` // "ok", "degraded" or "shutting_down"
	StartTime     time.Time `json:"start_time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	GoVersion     string    `json:"go_version"`
	BuildVersion  string    `json:"build_version,omitempty"`
	VCSRevision   string    `json:"vcs_revision,omitempty"`
	Goroutines    int       `json:"goroutines"`
	TraceEnabled  bool      `json:"trace_enabled"`
	TracesStored  int       `json:"traces_stored,omitempty"`
	// Cluster is present only on clustered nodes: identity, membership
	// and passive peer health (see cluster.go).
	Cluster *ClusterStatus `json:"cluster,omitempty"`
	// SLO is present only when objectives are configured: the engine's
	// full burn-rate snapshot.
	SLO *slo.Snapshot `json:"slo,omitempty"`
}

// buildFacts caches runtime/debug.ReadBuildInfo — immutable for the
// process lifetime, so read once.
type buildFacts struct{ version, revision string }

var readBuildFacts = sync.OnceValue(func() buildFacts {
	var bf buildFacts
	if bi, ok := debug.ReadBuildInfo(); ok {
		bf.version = bi.Main.Version
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				bf.revision = kv.Value
			}
		}
	}
	return bf
})

// Status reports liveness, build identity and runtime vitals.
func (s *Service) Status() Status {
	bf := readBuildFacts()
	st := Status{
		Status:        "ok",
		StartTime:     s.started,
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
		BuildVersion:  bf.version,
		VCSRevision:   bf.revision,
		Goroutines:    runtime.NumGoroutine(),
		TraceEnabled:  s.traces != nil,
	}
	if s.slo != nil {
		snap := s.slo.eng.Snapshot()
		st.SLO = &snap
		if !snap.Healthy {
			st.Status = "degraded"
		}
	}
	if s.isClosed() {
		st.Status = "shutting_down"
	}
	if s.traces != nil {
		st.TracesStored = len(s.traces.Traces())
	}
	if s.clu != nil {
		st.Cluster = s.clu.status()
	}
	return st
}

// Close stops admitting requests and waits for in-flight ones to
// drain. Safe to call more than once.
func (s *Service) Close() {
	// The job tier stops first: its workers call back into the engines
	// through the same admission path as requests, so they must be out
	// (cancelled, with their spool records left resumable) before the
	// request drain below can complete.
	if s.jobsMgr != nil {
		s.jobsMgr.Close()
	}
	s.closing.Do(func() {
		// Taking admit orders the close against every begin: once we
		// hold it, no request can be between its closed check and its
		// wg.Add, so wg.Wait below cannot race an Add.
		s.admit.Lock()
		close(s.closed)
		s.admit.Unlock()
	})
	s.wg.Wait()
}

func (s *Service) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// begin registers one in-flight request, refusing after Close. The
// returned done must be called when the request finishes. The admit
// mutex makes the closed check and wg.Add atomic with respect to
// Close, so an Add can never run concurrently with a Wait that has
// already observed a drained counter (a documented WaitGroup misuse).
func (s *Service) begin() (done func(), err error) {
	s.admit.Lock()
	defer s.admit.Unlock()
	if s.isClosed() {
		return nil, ErrShuttingDown
	}
	s.wg.Add(1)
	return s.wg.Done, nil
}

// FlushCache drops every cached result (operational hook; also used by
// the cache-miss benchmark).
func (s *Service) FlushCache() { s.cache.Flush() }

// CacheLen returns the number of cached canonical results.
func (s *Service) CacheLen() int { return s.cache.Len() }

// EffectiveTimeout clamps a request-supplied timeout (milliseconds;
// ≤ 0 = unset) into the configured window.
func (s *Service) EffectiveTimeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// acquire admits one unit of pool work, honoring queue-depth limits:
// when Pool slots are busy and Queue requests already wait, it fails
// fast with ErrOverloaded instead of building an unbounded backlog.
func (s *Service) acquire(ctx context.Context) (release func(), err error) {
	if s.isClosed() {
		return nil, ErrShuttingDown
	}
	// queued counts both waiting and running holders transiently; the
	// admission bound is holders ≤ Pool + Queue.
	if q := s.met.queued.Add(1); q > int64(s.cfg.Pool+s.cfg.Queue) {
		s.met.queued.Add(-1)
		s.met.rejected.Add(1)
		return nil, ErrOverloaded
	}
	select {
	case s.sem <- struct{}{}:
		s.met.queued.Add(-1)
		s.met.inflight.Add(1)
		return func() {
			s.met.inflight.Add(-1)
			<-s.sem
		}, nil
	case <-ctx.Done():
		s.met.queued.Add(-1)
		return nil, ctx.Err()
	case <-s.closed:
		s.met.queued.Add(-1)
		return nil, ErrShuttingDown
	}
}

// MapRequest asks for a time-optimal conflict-free joint (S, Π)
// mapping. The algorithm comes either from the named library
// (Algorithm + Sizes) or inline (Bounds + Dependencies, the uda JSON
// shape: dependence vectors as rows).
type MapRequest struct {
	Algorithm    string    `json:"algorithm,omitempty"`
	Sizes        []int64   `json:"sizes,omitempty"`
	Bounds       []int64   `json:"bounds,omitempty"`
	Dependencies [][]int64 `json:"dependencies,omitempty"`
	// Dims is the target array dimensionality (default 1).
	Dims int `json:"dims,omitempty"`
	// MaxEntry, WireWeight, MaxCost tune the search as in
	// schedule.SpaceOptions (0 = default).
	MaxEntry   int64 `json:"max_entry,omitempty"`
	WireWeight int64 `json:"wire_weight,omitempty"`
	MaxCost    int64 `json:"max_cost,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds
	// (0 = server default; capped by the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MapResponse is the search outcome, expressed in the request's axis
// order.
type MapResponse struct {
	Algorithm    string    `json:"algorithm"`
	Dim          int       `json:"n"`
	NumDeps      int       `json:"m"`
	Bounds       []int64   `json:"mu"`
	Dims         int       `json:"array_dims"`
	S            [][]int64 `json:"space_mapping"`
	Pi           []int64   `json:"schedule"`
	TotalTime    int64     `json:"total_time"`
	Objective    int64     `json:"objective"`
	Processors   int64     `json:"processors"`
	WireLength   int64     `json:"wire_length"`
	Cost         int64     `json:"array_cost"`
	Engine       string    `json:"engine"`
	Candidates   int       `json:"candidates"`
	Pruned       int       `json:"pruned"`
	Conflict     string    `json:"conflict_certificate"`
	CanonicalKey string    `json:"canonical_key"`
}

// algoFromRequest builds and validates the algorithm a request names or
// embeds.
func algoFromRequest(name string, sizes, bounds []int64, deps [][]int64) (*uda.Algorithm, error) {
	var algo *uda.Algorithm
	switch {
	case name != "":
		a, err := cli.Algorithm(name, sizes)
		if err != nil {
			return nil, &BadRequestError{Err: err}
		}
		algo = a
	case len(bounds) > 0:
		n := len(bounds)
		d := intmat.New(n, len(deps))
		for c, dep := range deps {
			if len(dep) != n {
				return nil, badRequest("service: dependence %d has %d entries, want %d", c+1, len(dep), n)
			}
			d.SetCol(c, dep)
		}
		algo = &uda.Algorithm{Name: "custom", Set: uda.IndexSet{Upper: append(intmat.Vector{}, bounds...)}, D: d}
	default:
		return nil, badRequest("service: request needs either \"algorithm\" or \"bounds\"+\"dependencies\"")
	}
	if err := algo.Validate(); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	if algo.Dim() > maxRequestDim {
		return nil, badRequest("service: dimension %d exceeds the limit %d", algo.Dim(), maxRequestDim)
	}
	if algo.NumDeps() > maxRequestDeps {
		return nil, badRequest("service: %d dependencies exceed the limit %d", algo.NumDeps(), maxRequestDeps)
	}
	for i, u := range algo.Set.Upper {
		if u > maxBound {
			return nil, badRequest("service: bound μ_%d = %d exceeds the limit %d", i+1, u, maxBound)
		}
	}
	return algo, nil
}

// validateMapRequest builds the algorithm a map request names or embeds
// and checks the search knobs, returning the resolved target
// dimensionality. Shared by Map, the batch endpoint, and the peer
// protocol (which must re-validate wire problems before trusting them).
func validateMapRequest(req *MapRequest) (*uda.Algorithm, int, error) {
	algo, err := algoFromRequest(req.Algorithm, req.Sizes, req.Bounds, req.Dependencies)
	if err != nil {
		return nil, 0, err
	}
	dims := req.Dims
	if dims == 0 {
		dims = 1
	}
	if dims < 1 || dims >= algo.Dim() {
		return nil, 0, badRequest("service: array dimensionality %d out of range [1, %d]", dims, algo.Dim()-1)
	}
	if dims > 1 && algo.Set.SizeExceeds(maxIndexPoints) {
		// Multi-row processor counting enumerates the index set.
		return nil, 0, badRequest("service: index set exceeds %d points, the limit for dims > 1", maxIndexPoints)
	}
	if req.MaxEntry < 0 || req.WireWeight < 0 || req.MaxCost < 0 {
		return nil, 0, badRequest("service: max_entry, wire_weight and max_cost must be ≥ 0")
	}
	return algo, dims, nil
}

// mapCacheKey is the composite cache/shard key: the canonical problem
// key plus every knob that changes the search outcome. The cluster ring
// hashes exactly this string, so all nodes agree on ownership.
func mapCacheKey(canonKey string, dims int, req *MapRequest) string {
	return fmt.Sprintf("%s|dims=%d|me=%d|ww=%d|mc=%d", canonKey, dims, req.MaxEntry, req.WireWeight, req.MaxCost)
}

// mapWorkload is the joint (S, Π) search behind /v1/map.
var mapWorkload = &workload[MapRequest, *schedule.JointResult, mapWire]{
	kind:     "map",
	validate: validateMapRequest,
	cacheKey: mapCacheKey,
	canonical: func(p *problem[MapRequest]) *MapRequest {
		return &MapRequest{
			Bounds:       p.canon.Algo.Set.Upper,
			Dependencies: depRows(p.canon.Algo),
			Dims:         p.dims,
			MaxEntry:     p.req.MaxEntry,
			WireWeight:   p.req.WireWeight,
			MaxCost:      p.req.MaxCost,
		}
	},
	search: func(ctx context.Context, s *Service, p *problem[MapRequest]) (*schedule.JointResult, error) {
		res, err := s.searchJoint(ctx, p.canon.Algo, p.dims, &schedule.SpaceOptions{
			MaxEntry:   p.req.MaxEntry,
			WireWeight: p.req.WireWeight,
			Schedule:   schedule.Options{MaxCost: p.req.MaxCost, Workers: s.cfg.SearchWorkers},
		})
		if err == nil {
			s.met.observeSearchStats(res.Stats)
		}
		return res, err
	},
	certify:  certifyMap,
	toWire:   wireFromResult,
	fromWire: resultFromWire,
	size:     estimateResultBytes,
}

// Map answers a joint-mapping query through the serving pipeline,
// translating the canonical result back to the caller's axis order.
func (s *Service) Map(ctx context.Context, req *MapRequest) (*MapResponse, CacheStatus, error) {
	done, err := s.begin()
	if err != nil {
		return nil, "", err
	}
	defer done()

	p, err := mapProblem(ctx, req)
	if err != nil {
		return nil, "", err
	}
	res, status, err := mapWorkload.serve(ctx, s, &p)
	if err != nil {
		return nil, status, err
	}
	return mapResponse(ctx, &p, res), status, nil
}

// mapProblem validates and canonicalizes a map request.
func mapProblem(ctx context.Context, req *MapRequest) (problem[MapRequest], error) {
	algo, dims, err := validateMapRequest(req)
	if err != nil {
		return problem[MapRequest]{}, err
	}
	defer recordStage(ctx, stageCanonicalize, time.Now())
	return mapWorkload.newProblem(req, algo, dims, req.TimeoutMS), nil
}

// mapResponse translates the canonical result of p into the axis order
// of p's request.
func mapResponse(ctx context.Context, p *problem[MapRequest], res *schedule.JointResult) *MapResponse {
	defer recordStage(ctx, stageTranslate, time.Now())
	return buildMapResponse(p.algo, p.canon, p.key, p.dims, res)
}

// buildMapResponse translates a canonical-coordinate result into the
// request's axis order. Time, processor count, wire length and cost are
// invariant under the translation (it is an index-space isomorphism);
// only S's columns and Π's entries move.
func buildMapResponse(algo *uda.Algorithm, canon *Canonical, key string, dims int, res *schedule.JointResult) *MapResponse {
	sReq := canon.MatrixToRequest(res.Mapping.S)
	piReq := canon.VectorToRequest(res.Mapping.Pi)
	return &MapResponse{
		Algorithm:    algo.Name,
		Dim:          algo.Dim(),
		NumDeps:      algo.NumDeps(),
		Bounds:       algo.Set.Upper,
		Dims:         dims,
		S:            matrixRows(sReq),
		Pi:           piReq,
		TotalTime:    res.Time,
		Objective:    res.Time - 1,
		Processors:   res.Processors,
		WireLength:   res.WireLength,
		Cost:         res.Cost,
		Engine:       res.ScheduleResult.Method,
		Candidates:   res.Candidates,
		Pruned:       res.Pruned,
		Conflict:     res.ScheduleResult.Conflict.Method,
		CanonicalKey: key,
		// SearchStats deliberately stays out of the body: its wall-time
		// fields would break the byte-identical cache-hit invariant. The
		// aggregate counters flow to GET /metrics instead.
	}
}

func matrixRows(m *intmat.Matrix) [][]int64 {
	rows := make([][]int64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// depRows lists an algorithm's dependence vectors, one per row.
func depRows(algo *uda.Algorithm) [][]int64 {
	deps := make([][]int64, algo.NumDeps())
	for c := range deps {
		deps[c] = algo.D.Col(c)
	}
	return deps
}

// certifyMap re-derives a map result independently before it is
// cached: schedule validity, rank, the total time recomputed from Π and
// μ, and conflict-freedom from a fresh Hermite factorization — a
// Theorem 2.2 witness per null-space basis vector, then the verifier's
// exact lattice search when the null space has dimension ≥ 2. Nothing
// but ctx bounds it. An int64 overflow in the verifier's arithmetic is
// returned as an *intmat.OverflowError. Optimality is not re-proved.
func certifyMap(ctx context.Context, canonAlgo *uda.Algorithm, res *schedule.JointResult) error {
	cert, err := verify.CertifyContext(ctx, canonAlgo, res.Mapping.S, res.Mapping.Pi,
		&verify.Options{SkipOptimality: true, BruteForceLimit: -1})
	if err != nil {
		return err
	}
	if err := cert.Err(); err != nil {
		return err
	}
	if cert.TotalTime != res.Time {
		return fmt.Errorf("service: total time %d does not match recomputed %d", res.Time, cert.TotalTime)
	}
	return nil
}

// mapWire is a map result in canonical coordinates, flattened for the
// peer protocol. It carries exactly the fields buildMapResponse reads,
// so a result rebuilt on the far side renders byte-identically there.
type mapWire struct {
	S                  [][]int64 `json:"s"`
	Pi                 []int64   `json:"pi"`
	Time               int64     `json:"time"`
	Processors         int64     `json:"processors"`
	WireLength         int64     `json:"wire_length"`
	Cost               int64     `json:"cost"`
	Candidates         int       `json:"candidates"`
	Pruned             int       `json:"pruned"`
	ScheduleCandidates int       `json:"schedule_candidates"`
	Engine             string    `json:"engine"`
	ConflictMethod     string    `json:"conflict_method"`
}

func wireFromResult(res *schedule.JointResult) *mapWire {
	return &mapWire{
		S:                  matrixRows(res.Mapping.S),
		Pi:                 res.Mapping.Pi,
		Time:               res.Time,
		Processors:         res.Processors,
		WireLength:         res.WireLength,
		Cost:               res.Cost,
		Candidates:         res.Candidates,
		Pruned:             res.Pruned,
		ScheduleCandidates: res.ScheduleResult.Candidates,
		Engine:             res.ScheduleResult.Method,
		ConflictMethod:     res.ScheduleResult.Conflict.Method,
	}
}

// resultFromWire reassembles a peer's map result against the canonical
// algorithm: shapes, ΠD > 0 and rank via wireMapping, a total time that
// fits int64, and non-degenerate figures. certifyMap does the rest.
func resultFromWire(canonAlgo *uda.Algorithm, dims int, w *mapWire) (*schedule.JointResult, error) {
	m, err := wireMapping(canonAlgo, dims, w.S, w.Pi)
	if err != nil {
		return nil, err
	}
	if _, err := m.TotalTimeChecked(); err != nil {
		return nil, err
	}
	if w.Processors < 1 || w.Time < 1 {
		return nil, fmt.Errorf("degenerate processors %d / time %d", w.Processors, w.Time)
	}
	return &schedule.JointResult{
		SpaceResult: schedule.SpaceResult{
			Mapping:    m,
			Processors: w.Processors,
			WireLength: w.WireLength,
			Cost:       w.Cost,
			Candidates: w.Candidates,
			Pruned:     w.Pruned,
			Time:       w.Time,
		},
		ScheduleResult: &schedule.Result{
			Mapping:    m,
			Time:       w.Time,
			Conflict:   conflict.Result{ConflictFree: true, Method: w.ConflictMethod},
			Candidates: w.ScheduleCandidates,
			Method:     w.Engine,
		},
	}, nil
}

// wireMapping rebuilds one peer-supplied (S, Π) over the canonical
// algorithm: shapes first, then ΠD > 0 and rank via schedule.NewMapping,
// whose int64 overflow comes back as an error.
func wireMapping(canonAlgo *uda.Algorithm, dims int, s [][]int64, pi []int64) (_ *schedule.Mapping, err error) {
	defer intmat.Guard(&err)
	n := canonAlgo.Dim()
	if len(s) != dims {
		return nil, fmt.Errorf("%d space rows, want %d", len(s), dims)
	}
	for i, r := range s {
		if len(r) != n {
			return nil, fmt.Errorf("S row %d has %d entries, want %d", i+1, len(r), n)
		}
	}
	if len(pi) != n {
		return nil, fmt.Errorf("Π has %d entries, want %d", len(pi), n)
	}
	return schedule.NewMapping(canonAlgo, intmat.FromRows(s...), intmat.Vector(pi))
}

// estimateResultBytes approximates the resident size of one cached
// result: the key string, the mapping's integer payloads, and a fixed
// struct/pointer overhead. An estimate by design — the bytes gauge
// exists for sizing and shard-balance decisions, not accounting.
func estimateResultBytes(key string, res *schedule.JointResult) int64 {
	b := int64(len(key)) + 768
	if res.Mapping != nil {
		// S, Π and the assembled T ≈ 2(k−1)+2 rows of n int64s each.
		n := int64(res.Mapping.S.Cols())
		rows := int64(res.Mapping.S.Rows())
		b += 8 * n * (2*rows + 2)
	}
	return b
}

// ConflictRequest asks for a conflict-freeness verdict on a mapping
// matrix T (given directly as rows, or as space rows S plus schedule
// Pi) over the index set Bounds.
type ConflictRequest struct {
	Bounds []int64   `json:"bounds"`
	T      [][]int64 `json:"t,omitempty"`
	S      [][]int64 `json:"s,omitempty"`
	Pi     []int64   `json:"pi,omitempty"`
}

// ConflictResponse carries the exact decision and its certificate.
type ConflictResponse struct {
	ConflictFree bool    `json:"conflict_free"`
	Witness      []int64 `json:"witness,omitempty"`
	Method       string  `json:"method"`
}

// Conflict decides conflict-freeness of a mapping matrix.
func (s *Service) Conflict(ctx context.Context, req *ConflictRequest) (*ConflictResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()

	set := uda.IndexSet{Upper: append(intmat.Vector{}, req.Bounds...)}
	if err := set.Validate(); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	if set.Dim() > maxRequestDim || set.SizeExceeds(maxIndexPoints) {
		return nil, badRequest("service: index set too large (dim ≤ %d, points ≤ %d)", maxRequestDim, maxIndexPoints)
	}
	rows := req.T
	if len(rows) == 0 {
		if req.Pi == nil {
			return nil, badRequest("service: conflict check needs \"t\" or \"s\"+\"pi\"")
		}
		rows = append(append([][]int64{}, req.S...), req.Pi)
	}
	n := set.Dim()
	for i, r := range rows {
		if len(r) != n {
			return nil, badRequest("service: T row %d has %d entries, want %d", i+1, len(r), n)
		}
	}
	t := intmat.FromRows(rows...)

	queueStart := time.Now()
	release, err := s.acquire(ctx)
	recordStage(ctx, stageQueue, queueStart)
	if err != nil {
		return nil, err
	}
	defer release()
	defer recordStage(ctx, stageSearch, time.Now())
	res, err := conflict.Decide(t, set)
	if err != nil {
		if errors.Is(err, conflict.ErrRank) {
			return nil, &BadRequestError{Err: err}
		}
		return nil, err
	}
	return &ConflictResponse{ConflictFree: res.ConflictFree, Witness: res.Witness, Method: res.Method}, nil
}

// SimulateRequest asks for a cycle-accurate run of a mapped algorithm
// on the systolic simulator with the generic checksum program.
type SimulateRequest struct {
	Algorithm    string    `json:"algorithm,omitempty"`
	Sizes        []int64   `json:"sizes,omitempty"`
	Bounds       []int64   `json:"bounds,omitempty"`
	Dependencies [][]int64 `json:"dependencies,omitempty"`
	S            [][]int64 `json:"s"`
	Pi           []int64   `json:"pi"`
	// Machine is a cli machine spec: "", "none", "meshN", or "p:...".
	Machine string `json:"machine,omitempty"`
}

// SimulateResponse carries the run statistics the simulator reports.
type SimulateResponse struct {
	Cycles          int64   `json:"cycles"`
	ScheduleTime    int64   `json:"schedule_time"`
	Processors      int     `json:"processors"`
	Computations    int64   `json:"computations"`
	PeakParallelism int     `json:"peak_parallelism"`
	Utilization     float64 `json:"utilization"`
	Conflicts       int     `json:"conflicts"`
	Collisions      int     `json:"collisions"`
	MaxBuffered     []int64 `json:"max_buffered"`
}

// Simulate runs a mapping through the systolic simulator.
func (s *Service) Simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()

	algo, err := algoFromRequest(req.Algorithm, req.Sizes, req.Bounds, req.Dependencies)
	if err != nil {
		return nil, err
	}
	if algo.Set.SizeExceeds(maxIndexPoints) {
		return nil, badRequest("service: index set exceeds the simulation limit of %d points", maxIndexPoints)
	}
	sm := intmat.New(0, algo.Dim())
	if len(req.S) > 0 {
		for i, r := range req.S {
			if len(r) != algo.Dim() {
				return nil, badRequest("service: S row %d has %d entries, want %d", i+1, len(r), algo.Dim())
			}
		}
		sm = intmat.FromRows(req.S...)
	}
	if len(req.Pi) != algo.Dim() {
		return nil, badRequest("service: Π has %d entries, want %d", len(req.Pi), algo.Dim())
	}
	mach, err := cli.Machine(req.Machine)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	m, err := schedule.NewMapping(algo, sm, intmat.Vector(req.Pi))
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	// Request-supplied Π and μ can drive 1 + Σ|π_i|μ_i past int64; the
	// checked form turns the wrap into a 400 instead of reporting a
	// negative schedule time.
	totalTime, err := m.TotalTimeChecked()
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}

	queueStart := time.Now()
	release, err := s.acquire(ctx)
	recordStage(ctx, stageQueue, queueStart)
	if err != nil {
		return nil, err
	}
	defer release()
	defer recordStage(ctx, stageSearch, time.Now())
	sim, err := systolic.New(m, &systolic.ChecksumProgram{Streams: algo.NumDeps()}, mach)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return &SimulateResponse{
		Cycles:          res.Cycles,
		ScheduleTime:    totalTime,
		Processors:      res.Processors,
		Computations:    res.Computations,
		PeakParallelism: res.MaxOccupancy,
		Utilization:     res.Utilization(),
		Conflicts:       len(res.Conflicts),
		Collisions:      len(res.Collisions),
		MaxBuffered:     res.MaxBuffered,
	}, nil
}
