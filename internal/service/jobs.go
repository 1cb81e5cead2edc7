package service

// The async job tier of the service (DESIGN.md §13): problems that do
// not fit a request deadline are submitted to POST /v1/jobs, executed
// by the internal/jobs worker pool through the same engines as the
// synchronous endpoints, spooled to disk at every transition, and
// resumed after a restart.
//
// Identity and routing share one principle with the cache tier: a job
// ID is a deterministic hash of the job kind and the canonical problem
// key, so duplicate submissions (in any axis permutation) collapse
// onto one job, a restarted node re-derives the same IDs from its
// spool, and a cluster routes every job endpoint by hashing the ID on
// the same consistent ring as cache keys. A non-owner proxies job
// requests to the ring owner; requests arriving with a hop header are
// always handled locally, so a job forward chain is at most
// origin → owner, mirroring the cache tier's structural loop freedom.
//
// The stored result of a done map/verify job is produced with exactly
// the encoder settings of writeJSON, so GET /v1/jobs/{id}/result
// replays the bytes the synchronous endpoint would have sent.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"

	"lodim/internal/cluster"
	"lodim/internal/jobs"
	"lodim/internal/trace"
)

// JobsConfig enables the durable async job tier.
type JobsConfig struct {
	// Dir is the spool directory (required when Jobs is set).
	Dir string
	// Workers is the job execution fan-out (≤ 0 selects 2). Job workers
	// acquire the same admission pool as synchronous requests, so the
	// total search concurrency stays bounded by Config.Pool.
	Workers int
	// PerTenantQueue bounds each tenant's queued backlog (≤ 0 selects
	// 64); beyond it submissions answer 429 with Retry-After.
	PerTenantQueue int
}

// Job kinds accepted by POST /v1/jobs.
const (
	JobKindMap    = "map"
	JobKindVerify = "verify"
)

// ErrJobsDisabled answers job requests on a node without a configured
// job tier — mapped to 404.
var ErrJobsDisabled = errors.New("service: job tier disabled (start with a jobs spool directory)")

// JobSubmitRequest asks for asynchronous execution of one problem.
// Exactly one of Map/Verify must be set, matching Kind.
type JobSubmitRequest struct {
	// Kind selects the engine: "map" (default when only Map is set) or
	// "verify".
	Kind string `json:"kind,omitempty"`
	// Tenant is the fairness bucket the job queues under; empty is the
	// anonymous tenant.
	Tenant string         `json:"tenant,omitempty"`
	Map    *MapRequest    `json:"map,omitempty"`
	Verify *VerifyRequest `json:"verify,omitempty"`
}

// JobResponse is the status body of the job endpoints: the snapshot
// plus the endpoint URLs a client polls or streams.
type JobResponse struct {
	jobs.Snapshot
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
	ResultURL string `json:"result_url,omitempty"`
}

func jobResponse(sn jobs.Snapshot) *JobResponse {
	resp := &JobResponse{
		Snapshot:  sn,
		StatusURL: "/v1/jobs/" + sn.ID,
		EventsURL: "/v1/jobs/" + sn.ID + "/events",
	}
	if sn.State == jobs.StateDone {
		resp.ResultURL = "/v1/jobs/" + sn.ID + "/result"
	}
	return resp
}

// jobIdentity validates a submission and derives its deterministic
// identity: the kind, the canonical composite key (the same string the
// cache and cluster tiers use), and the payload stored for the
// executor.
func (s *Service) jobIdentity(req *JobSubmitRequest) (kind, key string, payload []byte, err error) {
	kind = req.Kind
	if kind == "" {
		switch {
		case req.Map != nil && req.Verify == nil:
			kind = JobKindMap
		case req.Verify != nil && req.Map == nil:
			kind = JobKindVerify
		}
	}
	switch kind {
	case JobKindMap:
		if req.Map == nil || req.Verify != nil {
			return "", "", nil, badRequest("service: job kind %q needs exactly the \"map\" problem", kind)
		}
		algo, dims, err := validateMapRequest(req.Map)
		if err != nil {
			return "", "", nil, err
		}
		canon := Canonicalize(algo)
		key = mapCacheKey(canon.Key, dims, req.Map)
		payload, err = json.Marshal(req.Map)
		if err != nil {
			return "", "", nil, err
		}
		return kind, key, payload, nil
	case JobKindVerify:
		if req.Verify == nil || req.Map != nil {
			return "", "", nil, badRequest("service: job kind %q needs exactly the \"verify\" problem", kind)
		}
		vc, err := s.prepareVerify(req.Verify)
		if err != nil {
			return "", "", nil, err
		}
		key = vc.key
		payload, err = json.Marshal(req.Verify)
		if err != nil {
			return "", "", nil, err
		}
		return kind, key, payload, nil
	default:
		return "", "", nil, badRequest("service: unknown job kind %q (want %q or %q)", kind, JobKindMap, JobKindVerify)
	}
}

// executeJob is the jobs.Executor: it runs one attempt through the
// synchronous engines under a background context (jobs outlive the
// submitting request) bounded by the request's own clamped timeout,
// and encodes the result with writeJSON's exact encoder settings so
// the stored bytes equal the synchronous response body. Admission
// pressure and shutdown races surface as retryable errors — the
// manager re-queues instead of failing the job.
func (s *Service) executeJob(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
	if s.tracer != nil {
		var root *trace.Span
		ctx, root = s.tracer.StartRoot(ctx, "job-"+kind, "")
		root.SetStr("origin", "job")
		defer root.End()
	}
	switch kind {
	case JobKindMap:
		var req MapRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("service: job payload: %w", err)
		}
		rctx, cancel := context.WithTimeout(ctx, s.EffectiveTimeout(req.TimeoutMS))
		defer cancel()
		resp, _, err := s.Map(rctx, &req)
		if err != nil {
			return nil, jobExecError(ctx, err)
		}
		return encodeJobResult(resp)
	case JobKindVerify:
		var req VerifyRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("service: job payload: %w", err)
		}
		rctx, cancel := context.WithTimeout(ctx, s.EffectiveTimeout(req.TimeoutMS))
		defer cancel()
		resp, _, err := s.VerifyMapping(rctx, &req)
		if err != nil {
			return nil, jobExecError(ctx, err)
		}
		return encodeJobResult(resp)
	default:
		return nil, fmt.Errorf("service: job kind %q has no executor", kind)
	}
}

// jobExecError classifies an engine error for the job manager:
// transient admission/lifecycle pressure is retryable; everything else
// (including a definite ErrNoSchedule infeasibility answer) fails the
// job with its message. jobCtx is the job's own context — when *it*
// was cancelled the run was aborted externally (cancellation or
// shutdown), which the manager settles itself.
func jobExecError(jobCtx context.Context, err error) error {
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShuttingDown) {
		return &jobs.RetryableError{Err: err}
	}
	if jobCtx.Err() != nil {
		return jobCtx.Err()
	}
	return err
}

// encodeJobResult mirrors writeJSON's encoder settings (indent two
// spaces, trailing newline) byte for byte — the stored result must
// equal the synchronous response body.
func encodeJobResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SubmitJob validates, keys, and enqueues one asynchronous job,
// deduplicating by canonical identity.
func (s *Service) SubmitJob(req *JobSubmitRequest) (*JobResponse, error) {
	kind, key, payload, err := s.jobIdentity(req)
	if err != nil {
		return nil, err
	}
	return s.submitJob(req.Tenant, kind, key, payload)
}

// submitJob enqueues a job whose identity jobIdentity already derived.
func (s *Service) submitJob(tenant, kind, key string, payload []byte) (*JobResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	if s.jobsMgr == nil {
		return nil, ErrJobsDisabled
	}
	sn, err := s.jobsMgr.Submit(kind, tenant, key, payload)
	if err != nil {
		return nil, err
	}
	return jobResponse(sn), nil
}

// jobIDPattern bounds what the path parameter may look like before it
// is hashed onto the ring (a deterministic ID is 'j' + 16 hex chars).
var jobIDPattern = regexp.MustCompile(`^j[0-9a-f]{16}$`)

// jobOwner resolves the ring owner of a job ID; forward reports
// whether the request should be proxied (clustered, foreign owner, and
// not already a forwarded hop).
func (s *Service) jobOwner(r *http.Request, id string) (owner cluster.Member, forward bool) {
	if r.Header.Get(cluster.HopHeader) != "" {
		// Forwarded once already: answer locally no matter what the
		// membership view says, so job forwards can never loop.
		return cluster.Member{}, false
	}
	return s.ringOwner("job|" + id)
}

// proxyJob relays a job request to the ring owner verbatim, streaming
// the response back (flushing as it goes, so event streams stay live).
// Returns false when the owner was unreachable and the caller should
// degrade to local handling.
func (s *Service) proxyJob(w http.ResponseWriter, r *http.Request, owner cluster.Member, body []byte) bool {
	url := owner.URL + r.URL.Path
	preq, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set(cluster.HopHeader, strconv.Itoa(cluster.MaxHops))
	if len(body) > 0 {
		preq.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.clu.httpc.Do(preq)
	if err != nil {
		s.clu.health.ReportError(owner.ID, err)
		return false
	}
	defer resp.Body.Close()
	s.clu.health.ReportOK(owner.ID)
	s.met.jobsForwarded.Add(1)
	for _, h := range []string{"Content-Type", "Retry-After", "X-Mapserve-Cache"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return true
		}
	}
}

func (s *Service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, &contentTooLargeError{err: fmt.Errorf("service: request body exceeds %d bytes", mbe.Limit)})
			return
		}
		s.writeError(w, badRequest("service: reading request body: %v", err))
		return
	}
	var req JobSubmitRequest
	if err := decodeJSONBytes(body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	// Routing needs the deterministic ID, which needs the canonical key:
	// validate and key the problem before deciding where it runs. The
	// owner revalidates on arrival — forwarded bytes are not trusted.
	kind, key, payload, err := s.jobIdentity(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	id := jobs.ID(kind, key)
	if owner, forward := s.jobOwner(r, id); forward {
		if s.proxyJob(w, r, owner, body) {
			return
		}
		// Owner unreachable: accept the job locally rather than failing
		// the submission — availability over placement, like the cache
		// tier's local-search fallback.
	}
	resp, err := s.submitJob(req.Tenant, kind, key, payload)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// jobFromPath extracts and validates the {id} path parameter.
func (s *Service) jobFromPath(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		s.writeError(w, badRequest("service: malformed job id %q", id))
		return "", false
	}
	return id, true
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	id, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if owner, forward := s.jobOwner(r, id); forward && s.proxyJob(w, r, owner, nil) {
		return
	}
	if s.jobsMgr == nil {
		s.writeError(w, ErrJobsDisabled)
		return
	}
	sn, found := s.jobsMgr.Get(id)
	if !found {
		s.writeError(w, jobs.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, jobResponse(sn))
}

func (s *Service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	id, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if owner, forward := s.jobOwner(r, id); forward && s.proxyJob(w, r, owner, nil) {
		return
	}
	if s.jobsMgr == nil {
		s.writeError(w, ErrJobsDisabled)
		return
	}
	sn, found := s.jobsMgr.Get(id)
	switch {
	case !found:
		s.writeError(w, jobs.ErrNotFound)
	case sn.State != jobs.StateDone:
		msg := fmt.Sprintf("service: job %s is %s, no result yet", id, sn.State)
		if sn.State == jobs.StateFailed {
			msg = fmt.Sprintf("service: job %s failed: %s", id, sn.Error)
		}
		writeJSON(w, http.StatusConflict, errorBody{Error: msg})
	default:
		// The stored bytes are the synchronous response body, byte for
		// byte — write them verbatim, no re-encoding.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(sn.Result)
	}
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	id, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if owner, forward := s.jobOwner(r, id); forward && s.proxyJob(w, r, owner, nil) {
		return
	}
	if s.jobsMgr == nil {
		s.writeError(w, ErrJobsDisabled)
		return
	}
	sn, err := s.jobsMgr.Cancel(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobResponse(sn))
}

// handleJobEvents streams a job's state transitions as one JSON event
// per line (application/x-ndjson): the full history first, then live
// transitions until the job is terminal or the client disconnects.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !s.checkHop(w, r) {
		return
	}
	id, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if owner, forward := s.jobOwner(r, id); forward && s.proxyJob(w, r, owner, nil) {
		return
	}
	if s.jobsMgr == nil {
		s.writeError(w, ErrJobsDisabled)
		return
	}
	history, live, cancel, err := s.jobsMgr.Subscribe(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seen := 0
	emit := func(ev jobs.Event) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, ev := range history {
		emit(ev)
		seen = ev.Seq + 1
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				return
			}
			if ev.Seq < seen {
				continue // already replayed from history
			}
			emit(ev)
			seen = ev.Seq + 1
		case <-r.Context().Done():
			return
		}
	}
}

// decodeJSONBytes is decodeJSON for a body already read into memory
// (the submit handler needs the raw bytes again when proxying).
func decodeJSONBytes(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("service: invalid request body: %v", err)
	}
	if dec.More() {
		return badRequest("service: trailing data after JSON body")
	}
	return nil
}

// JobStats exposes the job-tier counters (nil manager = zero stats).
func (s *Service) JobStats() jobs.Stats {
	if s.jobsMgr == nil {
		return jobs.Stats{}
	}
	return s.jobsMgr.Stats()
}
