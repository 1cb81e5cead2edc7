package service

// The Pareto endpoint: POST /v1/pareto runs the multi-objective joint
// search (schedule.FindPareto) and returns the certified front over
// (total time, processors, buffer depth, link count).
//
// Caching follows the map endpoint's canonical discipline with one
// extra move: the composite key covers only the knobs that shape the
// front (problem identity, dims, MaxEntry, MaxCost, TimeSlack).
// Selection knobs — mode, lex order, weights — never enter the key,
// because they pick a member *from* the front without changing it; the
// Best index is recomputed per request from the cached front, so every
// selection of one problem costs a single search.
//
// Every front that enters the cache is verifier-certified first: the
// serving pipeline (workload.go) runs verify.CertifyPareto (member
// certificates plus the non-domination and pinned-order invariants) on
// the canonical result, whether this node searched it or received it
// from a peer.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lodim/internal/schedule"
	"lodim/internal/uda"
	"lodim/internal/verify"
)

// maxTimeSlack caps the requested window widening: every extra level
// re-enumerates the schedule cone once per candidate S, so an
// unbounded slack would let one request buy an unbounded search.
const maxTimeSlack = 64

// ParetoRequest asks for the Pareto front of a mapping problem. The
// algorithm and search knobs mirror MapRequest (WireWeight is absent:
// the link axis replaces the scalarized wire term); the selection
// knobs choose which front member the response marks Best.
type ParetoRequest struct {
	Algorithm    string    `json:"algorithm,omitempty"`
	Sizes        []int64   `json:"sizes,omitempty"`
	Bounds       []int64   `json:"bounds,omitempty"`
	Dependencies [][]int64 `json:"dependencies,omitempty"`
	Dims         int       `json:"dims,omitempty"`
	MaxEntry     int64     `json:"max_entry,omitempty"`
	MaxCost      int64     `json:"max_cost,omitempty"`
	// TimeSlack admits schedules up to (optimal time + TimeSlack) into
	// the front (0 = time-optimal members only; capped by maxTimeSlack).
	TimeSlack int64 `json:"time_slack,omitempty"`
	// Mode selects Best: "front" (default — the pinned-order head),
	// "lex", or "weighted".
	Mode string `json:"mode,omitempty"`
	// LexOrder is the axis priority for mode "lex": names among
	// "time", "processors", "buffers", "links"; omitted axes follow in
	// canonical order.
	LexOrder []string `json:"lex_order,omitempty"`
	// Weights are the per-axis scalarization weights for mode
	// "weighted", keyed by axis name.
	Weights   map[string]int64 `json:"weights,omitempty"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
}

// ParetoFrontMember is one front element in the request's axis order.
type ParetoFrontMember struct {
	S          [][]int64 `json:"space_mapping"`
	Pi         []int64   `json:"schedule"`
	TotalTime  int64     `json:"total_time"`
	Processors int64     `json:"processors"`
	Buffers    int64     `json:"buffers"`
	Links      int64     `json:"links"`
}

// ParetoResponse carries the certified front in pinned deterministic
// order. Best indexes the member the request's selection mode picked.
type ParetoResponse struct {
	Algorithm    string              `json:"algorithm"`
	Dim          int                 `json:"n"`
	NumDeps      int                 `json:"m"`
	Bounds       []int64             `json:"mu"`
	Dims         int                 `json:"array_dims"`
	Front        []ParetoFrontMember `json:"front"`
	Best         int                 `json:"best"`
	TimeBound    int64               `json:"time_bound"`
	Candidates   int                 `json:"candidates"`
	Pruned       int                 `json:"pruned"`
	Certified    bool                `json:"certified"`
	CanonicalKey string              `json:"canonical_key"`
}

// paretoSelection parses and validates the request's selection knobs.
// Knobs belonging to a mode that is not selected are rejected rather
// than ignored — a silently dropped knob reads like a different front.
func paretoSelection(req *ParetoRequest) (*schedule.ParetoOptions, error) {
	sel := &schedule.ParetoOptions{}
	switch req.Mode {
	case "", "front":
		sel.Mode = schedule.ModeFront
	case "lex":
		sel.Mode = schedule.ModeLex
	case "weighted":
		sel.Mode = schedule.ModeWeighted
	default:
		return nil, badRequest("service: unknown pareto mode %q (want front|lex|weighted)", req.Mode)
	}
	if sel.Mode != schedule.ModeLex && len(req.LexOrder) > 0 {
		return nil, badRequest("service: lex_order is only valid with mode \"lex\"")
	}
	if sel.Mode != schedule.ModeWeighted && len(req.Weights) > 0 {
		return nil, badRequest("service: weights are only valid with mode \"weighted\"")
	}
	for _, name := range req.LexOrder {
		o, err := schedule.ParseObjective(name)
		if err != nil {
			return nil, &BadRequestError{Err: err}
		}
		sel.LexOrder = append(sel.LexOrder, o)
	}
	for name, w := range req.Weights {
		o, err := schedule.ParseObjective(name)
		if err != nil {
			return nil, &BadRequestError{Err: err}
		}
		sel.Weights[o] = w
	}
	if err := sel.ValidateSelection(); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return sel, nil
}

// validateParetoRequest reuses the map request validation for the
// shared fields and checks the Pareto-specific knobs.
func validateParetoRequest(req *ParetoRequest) (*uda.Algorithm, int, *schedule.ParetoOptions, error) {
	mreq := &MapRequest{
		Algorithm:    req.Algorithm,
		Sizes:        req.Sizes,
		Bounds:       req.Bounds,
		Dependencies: req.Dependencies,
		Dims:         req.Dims,
		MaxEntry:     req.MaxEntry,
		MaxCost:      req.MaxCost,
	}
	algo, dims, err := validateMapRequest(mreq)
	if err != nil {
		return nil, 0, nil, err
	}
	if req.TimeSlack < 0 || req.TimeSlack > maxTimeSlack {
		return nil, 0, nil, badRequest("service: time_slack %d out of range [0, %d]", req.TimeSlack, maxTimeSlack)
	}
	sel, err := paretoSelection(req)
	if err != nil {
		return nil, 0, nil, err
	}
	return algo, dims, sel, nil
}

// paretoCacheKey is the front's composite cache/shard identity. The
// selection knobs are absent by design (see the file comment).
func paretoCacheKey(canonKey string, dims int, req *ParetoRequest) string {
	return fmt.Sprintf("pareto|%s|dims=%d|me=%d|mc=%d|slack=%d", canonKey, dims, req.MaxEntry, req.MaxCost, req.TimeSlack)
}

// paretoWorkload is the multi-objective search behind /v1/pareto.
var paretoWorkload = &workload[ParetoRequest, *schedule.ParetoResult, paretoWire]{
	kind: "pareto",
	validate: func(req *ParetoRequest) (*uda.Algorithm, int, error) {
		algo, dims, _, err := validateParetoRequest(req)
		return algo, dims, err
	},
	cacheKey: paretoCacheKey,
	canonical: func(p *problem[ParetoRequest]) *ParetoRequest {
		return &ParetoRequest{
			Bounds:       p.canon.Algo.Set.Upper,
			Dependencies: depRows(p.canon.Algo),
			Dims:         p.dims,
			MaxEntry:     p.req.MaxEntry,
			MaxCost:      p.req.MaxCost,
			TimeSlack:    p.req.TimeSlack,
		}
	},
	search: func(ctx context.Context, s *Service, p *problem[ParetoRequest]) (*schedule.ParetoResult, error) {
		res, err := s.searchPareto(ctx, p.canon.Algo, p.dims, &schedule.ParetoOptions{
			Space: schedule.SpaceOptions{
				MaxEntry: p.req.MaxEntry,
				Schedule: schedule.Options{MaxCost: p.req.MaxCost, Workers: s.cfg.SearchWorkers},
			},
			TimeSlack: p.req.TimeSlack,
			// ModeFront: selection happens per request, after the cache.
		})
		if err == nil {
			s.met.observeSearchStats(res.Stats)
		}
		return res, err
	},
	certify:  certifyFront,
	toWire:   wireFromPareto,
	fromWire: paretoFromWire,
	size:     estimateParetoBytes,
}

// Pareto answers a multi-objective front query through the serving
// pipeline, then selects Best under the request's mode from the
// cached front.
func (s *Service) Pareto(ctx context.Context, req *ParetoRequest) (*ParetoResponse, CacheStatus, error) {
	done, err := s.begin()
	if err != nil {
		return nil, "", err
	}
	defer done()

	algo, dims, sel, err := validateParetoRequest(req)
	if err != nil {
		return nil, "", err
	}
	canonStart := time.Now()
	p := paretoWorkload.newProblem(req, algo, dims, req.TimeoutMS)
	recordStage(ctx, stageCanonicalize, canonStart)
	res, status, err := paretoWorkload.serve(ctx, s, &p)
	if err != nil {
		return nil, status, err
	}
	resp, err := paretoResponse(ctx, &p, sel, res)
	return resp, status, err
}

// certifyFront runs the Pareto verifier over a canonical-coordinate
// result. Optimality analysis is skipped — slack-window members are
// deliberately non-optimal in time — but member validity, conflict-
// freedom, objective recomputation, the window, non-domination, and
// the pinned order are all re-derived, so a buggy or malicious peer
// cannot plant an invalid member, a dominated vector, or a misordered
// front.
func certifyFront(ctx context.Context, canonAlgo *uda.Algorithm, res *schedule.ParetoResult) error {
	cert, err := verify.CertifyPareto(ctx, canonAlgo, paretoVerifyInputs(res), res.TimeBound, &verify.Options{SkipOptimality: true})
	if err != nil {
		return err
	}
	return cert.Err()
}

func paretoVerifyInputs(res *schedule.ParetoResult) []verify.ParetoInput {
	inputs := make([]verify.ParetoInput, len(res.Front))
	for i, m := range res.Front {
		inputs[i] = verify.ParetoInput{S: m.Mapping.S, Pi: m.Mapping.Pi, Vector: [verify.ParetoAxes]int64(m.Vector)}
	}
	return inputs
}

// paretoResponse translates a canonical front into the request's axis
// order and selects Best under the request's mode. The translation is
// an index-space isomorphism, so every objective vector is invariant;
// only S's columns and Π's entries move.
func paretoResponse(ctx context.Context, p *problem[ParetoRequest], sel *schedule.ParetoOptions, res *schedule.ParetoResult) (*ParetoResponse, error) {
	defer recordStage(ctx, stageTranslate, time.Now())
	best, err := schedule.SelectBest(res.Front, sel)
	if err != nil {
		// Selection was validated before the search; failing here means a
		// cached front turned empty, which cannot happen.
		return nil, err
	}
	front := make([]ParetoFrontMember, len(res.Front))
	for i, m := range res.Front {
		front[i] = ParetoFrontMember{
			S:          matrixRows(p.canon.MatrixToRequest(m.Mapping.S)),
			Pi:         p.canon.VectorToRequest(m.Mapping.Pi),
			TotalTime:  m.Vector[schedule.ObjTime],
			Processors: m.Vector[schedule.ObjProcessors],
			Buffers:    m.Vector[schedule.ObjBuffers],
			Links:      m.Vector[schedule.ObjLinks],
		}
	}
	return &ParetoResponse{
		Algorithm:    p.algo.Name,
		Dim:          p.algo.Dim(),
		NumDeps:      p.algo.NumDeps(),
		Bounds:       p.algo.Set.Upper,
		Dims:         p.dims,
		Front:        front,
		Best:         best,
		TimeBound:    res.TimeBound,
		Candidates:   res.Candidates,
		Pruned:       res.Pruned,
		Certified:    true,
		CanonicalKey: p.key,
	}, nil
}

// paretoWire is a front in canonical coordinates, flattened for the
// peer protocol in the pinned deterministic order.
type paretoWire struct {
	Members    []paretoWireMember `json:"members"`
	TimeBound  int64              `json:"time_bound"`
	Candidates int                `json:"candidates"`
	Pruned     int                `json:"pruned"`
}

// paretoWireMember is one front member; Vector is (time, processors,
// buffers, links).
type paretoWireMember struct {
	S      [][]int64                `json:"s"`
	Pi     []int64                  `json:"pi"`
	Vector schedule.ObjectiveVector `json:"vector"`
}

func wireFromPareto(res *schedule.ParetoResult) *paretoWire {
	members := make([]paretoWireMember, len(res.Front))
	for i, m := range res.Front {
		members[i] = paretoWireMember{S: matrixRows(m.Mapping.S), Pi: m.Mapping.Pi, Vector: m.Vector}
	}
	return &paretoWire{Members: members, TimeBound: res.TimeBound, Candidates: res.Candidates, Pruned: res.Pruned}
}

// paretoFromWire reassembles a peer's front against the canonical
// algorithm, each member's mapping rebuilt by wireMapping.
// certifyFront does the rest.
func paretoFromWire(canonAlgo *uda.Algorithm, dims int, w *paretoWire) (*schedule.ParetoResult, error) {
	if len(w.Members) == 0 {
		return nil, errors.New("empty front")
	}
	front := make([]schedule.ParetoMember, len(w.Members))
	for i, wm := range w.Members {
		m, err := wireMapping(canonAlgo, dims, wm.S, wm.Pi)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		front[i] = schedule.ParetoMember{Mapping: m, Vector: wm.Vector}
	}
	return &schedule.ParetoResult{Front: front, TimeBound: w.TimeBound, Candidates: w.Candidates, Pruned: w.Pruned}, nil
}

// estimateParetoBytes approximates the resident size of one cached
// front, like estimateResultBytes per member.
func estimateParetoBytes(key string, res *schedule.ParetoResult) int64 {
	b := int64(len(key)) + 512
	for _, m := range res.Front {
		if m.Mapping == nil {
			continue
		}
		n := int64(m.Mapping.S.Cols())
		rows := int64(m.Mapping.S.Rows())
		b += 256 + 8*n*(2*rows+2)
	}
	return b
}
