package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/trace"
)

// maxBodyBytes bounds request bodies; every valid problem within the
// service's dimension/dependence limits encodes far below this.
const maxBodyBytes = 1 << 20

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// NewHandler wires the service's endpoints:
//
//	POST /v1/map       — joint (S, Π) mapping search
//	POST /v1/pareto    — multi-objective search: the certified Pareto
//	                     front over (time, processors, buffers, links)
//	POST /v1/batch     — many map queries, one admission-shared request
//	POST /v1/conflict  — conflict-freeness decision
//	POST /v1/simulate  — systolic simulation
//	POST /v1/verify    — independent mapping certification
//	GET  /metrics      — Prometheus text exposition (with exemplars)
//	GET  /healthz      — liveness probe ("degraded" on an SLO breach,
//	                     503 only while shutting down)
//
// Fleet observability (served in every mode; single-node reports a
// one-node fleet):
//
//	GET /peer/v1/status    — this node's observability snapshot
//	GET /v1/cluster/status — fan-out to all peers, merged fleet view
//
// The async job tier (404 unless Config.Jobs is set):
//
//	POST   /v1/jobs              — submit a map/verify problem, get a job ID
//	GET    /v1/jobs/{id}         — poll status, events and result
//	GET    /v1/jobs/{id}/result  — the stored result, byte-identical to the
//	                               synchronous response for the same problem
//	GET    /v1/jobs/{id}/events  — stream state transitions (ndjson)
//	DELETE /v1/jobs/{id}         — cancel a queued or running job
//
// Clustered nodes additionally serve the peer protocol (the pareto
// legs mirror the map legs key-for-key):
//
//	POST /peer/v1/lookup        — owner-side answer for a forwarded problem
//	POST /peer/v1/fill          — best-effort cache push from a peer
//	POST /peer/v1/pareto/lookup — owner-side answer for a forwarded front
//	POST /peer/v1/pareto/fill   — best-effort front push from a peer
//
// Every POST endpoint runs inside the instrument wrapper, which owns
// the per-endpoint request counter (exactly one increment per request,
// on every path), the request ID, the stage timer, and the structured
// access-log line.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", s.instrument("map", s.handleMap))
	mux.HandleFunc("POST /v1/pareto", s.instrument("pareto", s.handlePareto))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("POST /v1/conflict", s.instrument("conflict", s.handleConflict))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/verify", s.instrument("verify", s.handleVerify))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// The status legs are served even single-node: /v1/cluster/status
	// then reports a one-node fleet, so dashboards need no mode switch.
	mux.HandleFunc("GET "+cluster.StatusPath, s.instrument("peer_status", s.handlePeerStatus))
	mux.HandleFunc("GET /v1/cluster/status", s.instrument("cluster_status", s.handleClusterStatus))
	if s.clu != nil {
		mux.HandleFunc("POST "+cluster.LookupPath, s.instrument("peer_lookup", s.handlePeerLookup))
		mux.HandleFunc("POST "+cluster.FillPath, s.instrument("peer_fill", s.handlePeerFill))
		mux.HandleFunc("POST "+cluster.ParetoLookupPath, s.instrument("peer_pareto_lookup", s.handlePeerParetoLookup))
		mux.HandleFunc("POST "+cluster.ParetoFillPath, s.instrument("peer_pareto_fill", s.handlePeerParetoFill))
	}
	return mux
}

// obsWriter wraps the ResponseWriter to inject the observability
// headers at WriteHeader time (headers must precede the status line)
// and to remember the status for the access log.
type obsWriter struct {
	http.ResponseWriter
	timer       *reqTimer
	status      int
	traceparent string // response traceparent; empty when tracing is off
}

func (w *obsWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		w.Header().Set("X-Mapserve-Request", w.timer.id)
		if th := w.timer.timingHeader(); th != "" {
			w.Header().Set("X-Mapserve-Timing", th)
		}
		if w.traceparent != "" {
			w.Header().Set("Traceparent", w.traceparent)
		}
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *obsWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps a POST handler with the per-request observability:
// one counter increment, a fresh request ID and stage timer threaded
// through the context, a root trace span (joining any W3C traceparent
// the caller sent), per-stage histogram ingestion, and one structured
// access-log line when a logger is configured. The trace id rides in
// the response Traceparent header and the access-log line, keyed to
// the same request id — one identity across all three surfaces.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	counter := s.met.requestCounter(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		counter.Add(1)
		start := time.Now()
		tm := newReqTimer(newRequestID())
		ctx := withTimer(r.Context(), tm)

		var root *trace.Span
		if s.tracer != nil {
			incomingTrace, incomingSpan, joined := trace.ParseTraceparent(r.Header.Get("Traceparent"))
			if !joined {
				incomingTrace = ""
			}
			ctx, root = s.tracer.StartRoot(ctx, endpoint, incomingTrace)
			root.SetStr("request_id", tm.id)
			if joined {
				root.SetStr("parent_span_id", incomingSpan)
			}
		}
		r = r.WithContext(ctx)
		ow := &obsWriter{ResponseWriter: w, timer: tm}
		if root != nil {
			ow.traceparent = trace.Traceparent(root.TraceID(), root.IDHex())
		}
		h(ow, r)
		status := ow.status
		if status == 0 {
			status = http.StatusOK
		}
		if root != nil {
			root.SetInt("status", int64(status))
			root.End() // completes the trace: sinks (ring, dir) fire here
		}
		s.met.observeTimer(tm)
		cache := ow.Header().Get("X-Mapserve-Cache")
		var tenant string
		if observedEndpoint(endpoint) {
			// Tenant accounting and the SLO engine watch only the public
			// sync endpoints: peer traffic carries no tenant, and status
			// polling must not dilute (or pollute) the latency objective.
			tenant = tenantName(r.Header.Get(TenantHeader))
			delta := tenantCounters{}
			if cache == string(CacheHit) || cache == string(CachePeerHit) {
				delta.cacheHits = 1
			}
			if status == http.StatusTooManyRequests {
				delta.queueRejections = 1
			}
			if d, ok := tm.duration(stageSearch); ok {
				delta.searchMillis = d.Milliseconds()
			}
			s.tenants.observe(tenant, delta)
			if s.slo != nil {
				s.slo.observe(status, time.Since(start))
			}
		}
		if s.cfg.Logger != nil {
			attrs := []any{
				slog.String("id", tm.id),
				slog.String("endpoint", endpoint),
				slog.Int("status", status),
				slog.Duration("total", time.Since(start)),
			}
			if root != nil {
				attrs = append(attrs, slog.String("trace", root.TraceID()))
			}
			if cache != "" {
				attrs = append(attrs, slog.String("cache", cache))
			}
			if tenant != "" {
				attrs = append(attrs, slog.String("tenant", tenant))
			}
			attrs = append(attrs, slog.Group("stages", tm.stageAttrs()...))
			s.cfg.Logger.Info("request", attrs...)
		}
	}
}

// observedEndpoint gates SLO observation and tenant accounting to the
// public synchronous endpoints.
func observedEndpoint(endpoint string) bool {
	switch endpoint {
	case "map", "pareto", "conflict", "simulate", "verify", "batch", "jobs":
		return true
	}
	return false
}

// contentTooLargeError marks a body that exceeded maxBodyBytes — mapped
// to 413, not 400: the request was never parsed, so "bad request"
// would misreport a size limit as a syntax problem.
type contentTooLargeError struct{ err error }

func (e *contentTooLargeError) Error() string { return e.err.Error() }
func (e *contentTooLargeError) Unwrap() error { return e.err }

// decodeJSON reads one strict JSON document into dst, rejecting unknown
// fields, trailing garbage, and oversized bodies. Oversized bodies
// surface as *contentTooLargeError (413); everything else is a 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	defer recordStage(r.Context(), stageDecode, time.Now())
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &contentTooLargeError{err: fmt.Errorf("service: request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest("service: invalid request body: %v", err)
	}
	if dec.More() {
		return badRequest("service: trailing data after JSON body")
	}
	return nil
}

// encodeBufs pools writeJSON's body buffers.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffers returned to encodeBufs, so one huge
// response does not pin its storage for the process lifetime.
const maxPooledBody = 1 << 20

// writeJSON encodes v into a pooled buffer before writing anything, so
// the encode stage is recorded in time for the X-Mapserve-Timing header
// that obsWriter sets at WriteHeader.
func writeJSON(w http.ResponseWriter, status int, v any) {
	start := time.Now()
	buf := encodeBufs.Get().(*bytes.Buffer)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	if ow, ok := w.(*obsWriter); ok {
		ow.timer.record(stageEncode, time.Since(start))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		encodeBufs.Put(buf)
	}
}

// classifyError maps a service error to its HTTP status and an
// optional Retry-After pacing hint (0 = no hint), recording
// timeout/failure metrics as it goes. Shared by writeError and the
// batch endpoint's per-item statuses so the two surfaces can never
// disagree. The hint is a duration, not header text: the header's
// whole-second grammar rounds up (retryAfterHeader) while the batch
// items keep millisecond precision, so sub-second hints are neither
// truncated to "0" nor inflated a full second in the JSON.
func (s *Service) classifyError(err error) (status int, retryAfter time.Duration) {
	status = http.StatusInternalServerError
	var bad *BadRequestError
	var tooLarge *contentTooLargeError
	switch {
	case errors.As(err, &bad):
		status = http.StatusBadRequest
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		// Queue pressure clears as fast as searches finish — retry soon.
		status = http.StatusTooManyRequests
		retryAfter = time.Second
	case errors.As(err, new(*jobs.QueueFullError)):
		// A tenant's job backlog drains at worker speed, not request
		// speed — hint a longer pause than plain admission pressure.
		status = http.StatusTooManyRequests
		retryAfter = 2 * time.Second
	case errors.Is(err, jobs.ErrNotFound), errors.Is(err, ErrJobsDisabled):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrTerminal):
		status = http.StatusConflict
	case errors.Is(err, jobs.ErrClosed):
		status = http.StatusServiceUnavailable
		retryAfter = 2 * time.Second
	case errors.Is(err, ErrShuttingDown):
		// Shutdown never un-happens here; the hint sizes a client's pause
		// before trying a replacement or a restarted node.
		status = http.StatusServiceUnavailable
		retryAfter = 2 * time.Second
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
		s.met.timeouts.Add(1)
	case errors.Is(err, schedule.ErrNoSchedule):
		// The search completed and proved infeasibility within its
		// bounds — a definite answer about the problem, not a failure.
		status = http.StatusUnprocessableEntity
	default:
		s.met.failures.Add(1)
	}
	return status, retryAfter
}

// writeError renders a service error as its JSON error body, with the
// Retry-After header on backpressure statuses (429/503) so well-behaved
// clients — including cmd/maploadgen — pace their retries.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	status, retryAfter := s.classifyError(err)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterHeader(retryAfter))
	}
	// A tenant-queue rejection tells the client *whose* queue is full
	// and how full, so a well-behaved client can pace per tenant rather
	// than globally.
	var qf *jobs.QueueFullError
	if errors.As(err, &qf) {
		writeJSON(w, status, queueFullBody{
			Error:      err.Error(),
			Tenant:     qf.Tenant,
			QueueDepth: qf.Depth,
			QueueLimit: qf.Limit,
		})
		return
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// queueFullBody is the extended 429 body for tenant-queue rejections.
type queueFullBody struct {
	Error      string `json:"error"`
	Tenant     string `json:"tenant"`
	QueueDepth int    `json:"queue_depth"`
	QueueLimit int    `json:"queue_limit"`
}

// retryAfterHeader renders a pacing hint in the header's whole-second
// grammar, rounding *up*: rounding down would turn a sub-second hint
// into "0" (an immediate-retry invitation) or silently shorten the
// intended pause.
func retryAfterHeader(d time.Duration) string {
	secs := (d + time.Second - 1) / time.Second
	return strconv.FormatInt(int64(secs), 10)
}

// withDeadline derives the request context honoring the body-supplied
// timeout clamped into the configured window.
func (s *Service) withDeadline(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.EffectiveTimeout(timeoutMS))
}

func (s *Service) handleMap(w http.ResponseWriter, r *http.Request) {
	var req MapRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, req.TimeoutMS)
	defer cancel()
	resp, status, err := s.Map(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Cache status travels in a header so hit, miss and shared bodies
	// stay byte-identical for one problem.
	w.Header().Set("X-Mapserve-Cache", string(status))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handlePareto(w http.ResponseWriter, r *http.Request) {
	var req ParetoRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, req.TimeoutMS)
	defer cancel()
	resp, status, err := s.Pareto(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("X-Mapserve-Cache", string(status))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handlePeerParetoLookup(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	var req cluster.ParetoLookupRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.PeerParetoLookup(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handlePeerParetoFill(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	var req cluster.ParetoFillRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, 0)
	defer cancel()
	resp, err := s.PeerParetoFill(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleConflict(w http.ResponseWriter, r *http.Request) {
	var req ConflictRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, 0)
	defer cancel()
	resp, err := s.Conflict(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, 0)
	defer cancel()
	resp, err := s.Simulate(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, req.TimeoutMS)
	defer cancel()
	resp, status, err := s.VerifyMapping(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if status != "" {
		w.Header().Set("X-Mapserve-Cache", string(status))
	}
	// An invalid mapping is a definite answer, not an error: the body
	// carries the certificate with its named failing witness.
	writeJSON(w, http.StatusOK, resp)
}

// checkHop rejects peer requests whose hop count exceeds the protocol
// bound with 508 Loop Detected. Forwarding is structurally loop-free
// (peer-opened flights never forward), so a trip here means a buggy or
// misconfigured peer — failing loudly beats amplifying its traffic. A
// missing header is allowed (a human poking the endpoint with curl).
func (s *Service) checkHop(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(cluster.HopHeader)
	if h == "" {
		return true
	}
	hops, err := strconv.Atoi(h)
	if err != nil {
		s.writeError(w, badRequest("service: malformed %s header %q", cluster.HopHeader, h))
		return false
	}
	if hops > cluster.MaxHops {
		writeJSON(w, http.StatusLoopDetected, errorBody{
			Error: fmt.Sprintf("service: peer request exceeded %d hop(s) — forwarding loop", cluster.MaxHops),
		})
		return false
	}
	return true
}

func (s *Service) handlePeerLookup(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	var req cluster.LookupRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	// The forwarder propagates its caller's budget in TimeoutMS; clamp
	// it into this node's window exactly like an origin request.
	ctx, cancel := s.withDeadline(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.PeerLookup(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handlePeerFill(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	var req cluster.FillRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r, 0)
	defer cancel()
	resp, err := s.PeerFill(ctx, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WritePrometheus(w)
}

// handleHealthz reports the shared Status snapshot as JSON: probes key
// on the HTTP status (503 while shutting down), humans and tooling get
// uptime, build identity and runtime vitals — the same source the
// /debug/requests inspector renders. An SLO breach reports "degraded"
// in the body but stays 200: the process is alive and serving, and a
// liveness probe that restarts a breaching node would turn a latency
// incident into an availability one.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Status()
	code := http.StatusOK
	if st.Status == "shutting_down" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}
