package service

import (
	"context"
	"strconv"
	"strings"
	"time"

	"lodim/internal/intmat"
	"lodim/internal/uda"
	"lodim/internal/verify"
)

// The verify endpoint certifies a caller-supplied (S, Π) mapping
// through the independent verification engine. Certificates are cached
// under the same canonical axis-permutation keys as map results: the
// engine runs in canonical coordinates, the canonical certificate is
// cached, and each response translates it into the caller's axis
// order — so permuted variants of one verification cost one engine run.

// VerifyRequest asks for a certificate on the mapping (S, Pi) of an
// algorithm (named from the library, or inline as Bounds +
// Dependencies).
type VerifyRequest struct {
	Algorithm    string    `json:"algorithm,omitempty"`
	Sizes        []int64   `json:"sizes,omitempty"`
	Bounds       []int64   `json:"bounds,omitempty"`
	Dependencies [][]int64 `json:"dependencies,omitempty"`
	S            [][]int64 `json:"s,omitempty"`
	Pi           []int64   `json:"pi"`
	// Simulate additionally replays the mapping on the systolic
	// simulator (bounded by the service's index-set ceiling).
	Simulate bool `json:"simulate,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds
	// (0 = server default; capped by the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// VerifyResponse carries the full certificate in the request's axis
// order. Valid duplicates the certificate's verdict at the top level so
// callers can branch without walking the witness structure.
type VerifyResponse struct {
	Valid         bool                `json:"valid"`
	FailedWitness string              `json:"failed_witness,omitempty"`
	Certificate   *verify.Certificate `json:"certificate"`
	CanonicalKey  string              `json:"canonical_key"`
}

// verifyCanon is a validated, canonicalized verify request: everything
// VerifyMapping (and the job tier's identity derivation) needs beyond
// the raw request.
type verifyCanon struct {
	algo    *uda.Algorithm
	canon   *Canonical
	canonS  *intmat.Matrix
	canonPi intmat.Vector
	colPerm []int
	key     string
}

// prepareVerify validates a verify request's shapes and derives its
// canonical coordinates and cache key — the single source of identity
// for both the synchronous endpoint and the async job tier.
func (s *Service) prepareVerify(req *VerifyRequest) (*verifyCanon, error) {
	algo, err := algoFromRequest(req.Algorithm, req.Sizes, req.Bounds, req.Dependencies)
	if err != nil {
		return nil, err
	}
	n := algo.Dim()
	sm := intmat.New(0, n)
	if len(req.S) > 0 {
		for i, r := range req.S {
			if len(r) != n {
				return nil, badRequest("service: S row %d has %d entries, want %d", i+1, len(r), n)
			}
		}
		sm = intmat.FromRows(req.S...)
	}
	if len(req.Pi) != n {
		return nil, badRequest("service: Π has %d entries, want %d", len(req.Pi), n)
	}
	if req.Simulate && algo.Set.SizeExceeds(maxIndexPoints) {
		return nil, badRequest("service: index set exceeds the simulation limit of %d points", maxIndexPoints)
	}
	canon := Canonicalize(algo)
	canonS := canon.MatrixToCanonical(sm)
	canonPi := canon.VectorToCanonical(req.Pi)
	return &verifyCanon{
		algo:    algo,
		canon:   canon,
		canonS:  canonS,
		canonPi: canonPi,
		// Canonical column j of D is request column colPerm[j]; computed
		// here because only the request still knows its column order.
		colPerm: canon.DepColumnPerm(algo.D),
		key:     verifyCacheKey(canon.Key, canonS, canonPi, req.Simulate),
	}, nil
}

// VerifyMapping certifies a mapping, serving repeated (and axis-
// permuted) queries from the canonical certificate cache.
func (s *Service) VerifyMapping(ctx context.Context, req *VerifyRequest) (*VerifyResponse, CacheStatus, error) {
	done, err := s.begin()
	if err != nil {
		return nil, "", err
	}
	defer done()

	canonStart := time.Now()
	vc, err := s.prepareVerify(req)
	if err != nil {
		return nil, "", err
	}
	canon, colPerm, key := vc.canon, vc.colPerm, vc.key
	recordStage(ctx, stageCanonicalize, canonStart)

	if v, ok := s.cache.Get(key); ok {
		s.met.verifyCacheHits.Add(1)
		return s.verifyResponse(ctx, canon, colPerm, key, v.(*verify.Certificate)), CacheHit, nil
	}

	queueStart := time.Now()
	release, err := s.acquire(ctx)
	recordStage(ctx, stageQueue, queueStart)
	if err != nil {
		return nil, "", err
	}
	defer release()
	if v, ok := s.cache.Get(key); ok { // landed while we waited for a slot
		s.met.verifyCacheHits.Add(1)
		return s.verifyResponse(ctx, canon, colPerm, key, v.(*verify.Certificate)), CacheHit, nil
	}
	s.met.verifyCacheMisses.Add(1)

	opts := &verify.Options{Simulate: req.Simulate}
	certStart := time.Now()
	// The context-aware form threads the request's trace span into the
	// engine, which records its certificate stages as child spans.
	cert, err := verify.CertifyContext(ctx, canon.Algo, vc.canonS, vc.canonPi, opts)
	recordStage(ctx, stageSearch, certStart)
	if err != nil {
		// Shape problems were screened above, so an engine error here is
		// arithmetic overflow on this input (422) or the request's
		// context ending (504).
		return nil, CacheMiss, err
	}
	// Certificates are small and witness-bounded; a flat size hint keeps
	// the bytes gauge honest without walking the witness lists.
	s.cache.Add(key, cert, int64(len(key))+1024)
	return s.verifyResponse(ctx, canon, colPerm, key, cert), CacheMiss, nil
}

// verifyResponse is buildVerifyResponse with the translate stage
// recorded against the request's timer.
func (s *Service) verifyResponse(ctx context.Context, canon *Canonical, colPerm []int, key string, cert *verify.Certificate) *VerifyResponse {
	defer recordStage(ctx, stageTranslate, time.Now())
	return buildVerifyResponse(canon, colPerm, key, cert)
}

// verifyCacheKey derives the canonical cache identity of a
// verification: the canonical problem key plus the canonical-coordinate
// mapping and the witness set requested.
func verifyCacheKey(canonKey string, s *intmat.Matrix, pi intmat.Vector, simulate bool) string {
	var b strings.Builder
	b.WriteString("verify|")
	b.WriteString(canonKey)
	b.WriteString("|S=")
	for r := 0; r < s.Rows(); r++ {
		if r > 0 {
			b.WriteByte(';')
		}
		writeVec(&b, s.Row(r))
	}
	b.WriteString("|pi=")
	writeVec(&b, pi)
	if simulate {
		b.WriteString("|sim")
	}
	return b.String()
}

func writeVec(b *strings.Builder, v intmat.Vector) {
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(x, 10))
	}
}

// buildVerifyResponse translates a canonical-coordinate certificate
// into the request's axis order. Scalar facts (verdicts, times, bounds,
// the L diagonal — the HNF is invariant under column permutation) copy
// unchanged; axis-indexed data permutes through the canonicalization.
func buildVerifyResponse(canon *Canonical, colPerm []int, key string, cert *verify.Certificate) *VerifyResponse {
	out := *cert // shallow copy; every mutated field below is re-allocated
	out.Mu = canon.VectorToRequest(cert.Mu)
	out.Pi = canon.VectorToRequest(cert.Pi)
	out.S = make([][]int64, len(cert.S))
	for i, row := range cert.S {
		out.S[i] = canon.VectorToRequest(row)
	}
	// Schedule witnesses follow the canonical column sort; put them back
	// in the caller's dependence order.
	out.Schedule = make([]verify.ScheduleWitness, len(cert.Schedule))
	for j, w := range cert.Schedule {
		w.Dep = canon.VectorToRequest(w.Dep)
		out.Schedule[colPerm[j]] = w
	}
	out.Basis = make([]verify.BasisWitness, len(cert.Basis))
	for i, bw := range cert.Basis {
		bw.Gamma = canon.VectorToRequest(bw.Gamma)
		if bw.FeasibleIndex >= 0 {
			bw.FeasibleIndex = canon.AxisToRequest(bw.FeasibleIndex)
		}
		out.Basis[i] = bw
	}
	if cert.ConflictWitness != nil {
		out.ConflictWitness = canon.VectorToRequest(cert.ConflictWitness)
	}
	if cert.BruteForce != nil {
		bf := *cert.BruteForce
		if bf.Witness != nil {
			bf.Witness = canon.VectorToRequest(bf.Witness)
		}
		out.BruteForce = &bf
	}
	if cert.HNF != nil {
		hw := *cert.HNF
		hw.LDiag = append([]int64(nil), cert.HNF.LDiag...)
		out.HNF = &hw
	}
	if cert.Enumeration != nil {
		ew := *cert.Enumeration
		ew.BetaBounds = append([]int64(nil), cert.Enumeration.BetaBounds...)
		out.Enumeration = &ew
	}
	if cert.Simulation != nil {
		sw := *cert.Simulation
		out.Simulation = &sw
	}
	return &VerifyResponse{
		Valid:         out.Valid,
		FailedWitness: out.FailedWitness,
		Certificate:   &out,
		CanonicalKey:  key,
	}
}
