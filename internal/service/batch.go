package service

import (
	"context"
	"net/http"
	"sync"
	"time"

	"lodim/internal/schedule"
)

// maxBatchItems bounds one batch request. The ceiling exists so a
// single request cannot monopolize the decode path or produce an
// unbounded response; corpora larger than this paginate trivially.
const maxBatchItems = 256

// BatchRequest carries many map queries in one HTTP request. Items
// share the request's admission slot count — each item still passes the
// worker-pool admission individually, so a batch cannot jump the queue,
// but the per-request overheads (connection, decode, log line) are paid
// once.
type BatchRequest struct {
	Items []MapRequest `json:"items"`
}

// BatchItemResult is one item's outcome. Exactly one of Response or
// Error is set; Status mirrors what the item would have received as a
// standalone /v1/map call, and RetryAfterMS carries the same pacing
// hint the Retry-After header would.
type BatchItemResult struct {
	Index        int          `json:"index"`
	Status       int          `json:"status"`
	Cache        CacheStatus  `json:"cache,omitempty"`
	DurationMS   float64      `json:"duration_ms"`
	RetryAfterMS int64        `json:"retry_after_ms,omitempty"`
	Response     *MapResponse `json:"response,omitempty"`
	Error        string       `json:"error,omitempty"`
}

// BatchResponse summarizes the batch: per-item results in input order
// plus aggregate counts and wall time.
type BatchResponse struct {
	Items      []BatchItemResult `json:"items"`
	OK         int               `json:"ok"`
	Failed     int               `json:"failed"`
	DurationMS float64           `json:"duration_ms"`
}

// Batch answers every item of a batch request, fanning out across at
// most the worker-pool width. Items that share a canonical key are one
// problem: the first of them runs through the full Map path — cache,
// singleflight, cluster forwarding, admission — under its own deadline,
// and the others take its outcome, translated to their own axis order,
// with its cache disposition. So a batch of permuted duplicates costs
// one search and its body does not depend on which duplicate reached
// the cache first. Items beyond the pool+queue budget fail individually
// with 429 rather than failing the whole batch.
func (s *Service) Batch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	if len(req.Items) == 0 {
		return nil, badRequest("service: batch carries no items")
	}
	if len(req.Items) > maxBatchItems {
		return nil, badRequest("service: batch carries %d items, the limit is %d", len(req.Items), maxBatchItems)
	}

	start := time.Now()
	n := len(req.Items)
	items := make([]batchItem, n)
	var leaders []int
	first := make(map[string]int, n)
	for i := range req.Items {
		it := &items[i]
		it.p, it.err = mapProblem(ctx, &req.Items[i])
		it.lead = i
		if it.err != nil {
			continue
		}
		if j, ok := first[it.p.key]; ok {
			it.lead = j
		} else {
			first[it.p.key] = i
			leaders = append(leaders, i)
		}
	}
	// Fan-out matches the pool width: wider would only grow the
	// admission queue (risking self-inflicted 429s on large batches),
	// narrower would idle workers on cache-heavy corpora.
	workers := min(s.cfg.Pool, len(leaders))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				items[i].run(ctx, s)
			}
		}()
	}
	for _, i := range leaders {
		next <- i
	}
	close(next)
	wg.Wait()

	resp := &BatchResponse{Items: make([]BatchItemResult, n)}
	for i := range items {
		resp.Items[i] = s.batchResult(ctx, i, &items[i], &items[items[i].lead])
		if resp.Items[i].Status == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	resp.DurationMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return resp, nil
}

// batchItem is one item of a batch: its problem, or the error that
// refused it, and the index of the item whose run answers it. A leading
// item (lead is its own index) also holds its run's outcome.
type batchItem struct {
	p    problem[MapRequest]
	err  error
	lead int

	res      *schedule.JointResult
	status   CacheStatus
	runErr   error
	duration time.Duration
}

// run answers a leading item through the Map path under its own clamped
// deadline.
func (it *batchItem) run(ctx context.Context, s *Service) {
	start := time.Now()
	ictx, cancel := context.WithTimeout(ctx, s.EffectiveTimeout(it.p.req.TimeoutMS))
	defer cancel()
	it.res, it.status, it.runErr = mapWorkload.serve(ictx, s, &it.p)
	it.duration = time.Since(start)
}

// batchResult renders item i from the run of its leading item.
func (s *Service) batchResult(ctx context.Context, i int, it, lead *batchItem) BatchItemResult {
	res := BatchItemResult{Index: i}
	err := it.err
	if err == nil {
		res.Cache, res.DurationMS, err = lead.status, float64(lead.duration.Nanoseconds())/1e6, lead.runErr
	}
	if err != nil {
		status, retryAfter := s.classifyError(err)
		res.Status = status
		res.Error = err.Error()
		// Milliseconds straight from the classified duration — not
		// reconstructed from the whole-second header rendering, which
		// would drop sub-second pacing (and turn a short hint into "no
		// hint" after truncating to 0 seconds).
		res.RetryAfterMS = retryAfter.Milliseconds()
		return res
	}
	res.Status = http.StatusOK
	res.Response = mapResponse(ctx, &it.p, lead.res)
	return res
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	// No whole-batch deadline beyond the per-item ones: items already
	// clamp themselves, and a shared ceiling would make late items fail
	// for the sins of early slow ones.
	resp, err := s.Batch(r.Context(), &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
