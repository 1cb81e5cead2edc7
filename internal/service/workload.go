package service

// The serving pipeline every cached search workload runs through. A
// workload descriptor supplies what differs between workloads — its
// kind, composite key, search, certification, wire codec and size
// estimate — and one set of methods drives every stage for all of them:
//
//	cache → flight → (forward to the ring owner | acquire → search)
//	      → certify → cache → async owner fill
//
// plus the owner side of the peer protocol (peer-serve). Map and Pareto
// are the two descriptors; their public front ends validate a request,
// call serve, and translate the canonical result into the response.
//
// No result enters the cache uncertified: a local search result and a
// result received from a peer (lookup answer or fill) pass the same
// certify step first.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/trace"
	"lodim/internal/uda"
)

// peerLookupGrace pads the forwarded deadline so an owner that finishes
// just inside the caller's budget can still deliver its answer.
const peerLookupGrace = 2 * time.Second

// workload describes one cached search workload. Req is its request
// type, which doubles as the canonical request a peer receives; Res is
// its canonical-coordinate result, the type the cache holds; Wire is
// that result as the peer protocol carries it.
type workload[Req, Res, Wire any] struct {
	kind string
	// validate checks a request and builds its algorithm in the
	// request's axis order, returning the array dimensionality.
	validate func(req *Req) (*uda.Algorithm, int, error)
	// cacheKey is the composite cache/shard key: the canonical problem
	// key plus every knob that changes the result.
	cacheKey func(canonKey string, dims int, req *Req) string
	// canonical is the request sent to peers: the canonical instance
	// plus exactly the knobs that enter cacheKey.
	canonical func(p *problem[Req]) *Req
	search    func(ctx context.Context, s *Service, p *problem[Req]) (Res, error)
	// certify re-derives a canonical result independently; nothing is
	// cached before it passes.
	certify func(ctx context.Context, canonAlgo *uda.Algorithm, res Res) error
	// toWire and fromWire are the peer codec. fromWire checks shapes and
	// rebuilds the mappings; certification is left to certify.
	toWire   func(res Res) *Wire
	fromWire func(canonAlgo *uda.Algorithm, dims int, w *Wire) (Res, error)
	// size estimates the resident bytes of one cache entry.
	size func(key string, res Res) int64
}

// problem is one validated request of a workload, canonicalized.
type problem[Req any] struct {
	req       *Req
	algo      *uda.Algorithm // the request's own axis order
	canon     *Canonical
	dims      int
	key       string
	timeoutMS int64 // the caller's budget, forwarded to the ring owner
}

// newProblem canonicalizes a validated request and derives its key.
func (w *workload[Req, Res, Wire]) newProblem(req *Req, algo *uda.Algorithm, dims int, timeoutMS int64) problem[Req] {
	canon := Canonicalize(algo)
	return problem[Req]{req: req, algo: algo, canon: canon, dims: dims, key: w.cacheKey(canon.Key, dims, req), timeoutMS: timeoutMS}
}

// outcome is what a flight resolves to: the canonical result, plus how
// it was produced — from the local cache, from the key's ring owner
// (viaPeer, with the owner's own disposition), or by searching here.
type outcome[Res any] struct {
	res             Res
	fromCache       bool
	viaPeer         bool
	peerDisposition string // cluster.Disposition* when viaPeer
}

// serve answers one origin request: the canonical cache first, then a
// singleflight-deduplicated flight that either forwards to the key's
// ring owner (clustered, non-owner) or runs the admission-controlled
// search.
func (w *workload[Req, Res, Wire]) serve(ctx context.Context, s *Service, p *problem[Req]) (Res, CacheStatus, error) {
	if v, ok := s.cache.Get(p.key); ok {
		s.met.cacheHits.Add(1)
		return v.(Res), CacheHit, nil
	}
	// The flight keeps its own copy, so only a miss allocates one.
	fp := *p
	out, leader, err := w.flight(ctx, s, &fp, true)
	status := CacheShared
	switch {
	case !leader:
	case err != nil:
		status = CacheMiss
		s.met.cacheMisses.Add(1)
	case out.fromCache:
		// The flight landed on an already-cached result (another flight
		// completed between our cache lookup and leadership) — report it
		// as the hit it is.
		status = CacheHit
		s.met.cacheHits.Add(1)
	case out.viaPeer:
		// The ring owner answered; report its disposition so clients can
		// tell a cluster-wide hit from a search. Local hit/miss counters
		// stay untouched — they measure this node's cache; the
		// peer_forward_* counters measure this.
		status = CacheStatus("peer_" + out.peerDisposition)
	default:
		status = CacheMiss
		s.met.cacheMisses.Add(1)
	}
	if err != nil {
		var zero Res
		return zero, status, err
	}
	return out.res, status, nil
}

// flight joins the key's flight, or opens one running resolve, and
// reports whether this caller led it. The flight context — not the
// caller's — drives the work: it stays alive as long as any waiter
// (this caller or one that joined) still wants the result.
func (w *workload[Req, Res, Wire]) flight(ctx context.Context, s *Service, p *problem[Req], allowForward bool) (*outcome[Res], bool, error) {
	fctx, fspan := trace.Start(ctx, "flight")
	flightStart := time.Now()
	v, err, leader, mark := s.flights.DoMarked(fctx, p.key, func(fc context.Context) (any, error) {
		return w.resolve(fc, s, p, allowForward)
	})
	if !leader {
		s.recordFollowerWait(ctx, mark, flightStart)
	}
	if fspan != nil {
		role := "follower"
		if leader {
			role = "leader"
		}
		fspan.SetStr("role", role)
		if err != nil {
			fspan.SetStr("error", err.Error())
		}
		fspan.End()
	}
	if err != nil {
		return nil, leader, err
	}
	return v.(*outcome[Res]), leader, nil
}

// recordFollowerWait books a follower's time inside flights.DoMarked
// against its own stage timer. The flight's stage records go to the
// leader's timer (the flight context carries the leader's values), so
// without this a follower would report no queue/search time at all —
// and the naive fix of booking the whole wait as search time would
// double-count pool-queue time the search never saw. The mark's
// searchStartNs splits the wait at the instant the search actually
// began: before it is queue, after it is search.
func (s *Service) recordFollowerWait(ctx context.Context, mark *flightMark, joined time.Time) {
	tm := timerFrom(ctx)
	if tm == nil || mark == nil {
		return
	}
	now := time.Now()
	startNs := mark.searchStartNs.Load()
	switch {
	case startNs == 0:
		// The search never started while we waited (the flight was still
		// queued for a pool slot, or failed before searching): the whole
		// wait was queue time.
		tm.record(stageQueue, now.Sub(joined))
	default:
		start := time.Unix(0, startNs)
		if start.After(joined) {
			tm.record(stageQueue, start.Sub(joined))
			tm.record(stageSearch, now.Sub(start))
		} else {
			// Joined after the search began: the wait was all search.
			tm.record(stageSearch, now.Sub(joined))
		}
	}
}

// resolve is the body of every flight: re-check the cache, forward to
// the key's ring owner when another node owns it (allowForward),
// otherwise acquire a pool slot, search in canonical coordinates and
// certify the result before caching it. ctx is the flight context —
// cancelled only when every waiter on this flight has detached.
//
// allowForward is false for flights opened by the peer-lookup handler:
// an owner answers locally even when its membership view disagrees, so
// a forward chain is at most origin → owner and can never loop.
func (w *workload[Req, Res, Wire]) resolve(ctx context.Context, s *Service, p *problem[Req], allowForward bool) (*outcome[Res], error) {
	// An earlier flight may have landed between the caller's cache
	// lookup and taking flight leadership — don't search (or forward)
	// twice. Checked before admission: a hit needs no pool slot.
	if v, ok := s.cache.Get(p.key); ok {
		return &outcome[Res]{res: v.(Res), fromCache: true}, nil
	}
	fellBack := false
	if allowForward {
		out, err, verdict := w.forward(ctx, s, p)
		switch verdict {
		case peerDone:
			return out, err
		case peerFailed:
			// Owner unreachable or answered garbage: degrade to a local
			// search so one dead node never takes its keys down, then
			// push the result to the owner for cluster convergence.
			fellBack = true
		}
	}
	// ctx descends (via context.WithoutCancel) from the flight leader's
	// request context, so its stage timer — when the request came over
	// HTTP — is visible here even though the flight may outlive the
	// leader's deadline. The timer's atomics make the late writes safe.
	queueStart := time.Now()
	release, err := s.acquire(ctx)
	recordStage(ctx, stageQueue, queueStart)
	if err != nil {
		return nil, err
	}
	defer release()
	if v, ok := s.cache.Get(p.key); ok {
		return &outcome[Res]{res: v.(Res), fromCache: true}, nil
	}
	s.met.searches.Add(1)
	// Stamp the flight mark so followers can split their wait into
	// queue-versus-search at the moment the search truly began.
	if fm := markFrom(ctx); fm != nil {
		fm.searchStartNs.CompareAndSwap(0, time.Now().UnixNano())
	}
	start := time.Now()
	res, err := w.search(ctx, s, p)
	s.met.observeSearch(time.Since(start), trace.FromContext(ctx).TraceID())
	recordStage(ctx, stageSearch, start)
	if err != nil {
		return nil, err
	}
	// A local result that fails certification is an engine bug, not a
	// bad request — surface it loudly. Nothing uncertified is cached:
	// an overflow in the verifier's arithmetic is answered 422, like one
	// in the search.
	if err := w.certify(ctx, p.canon.Algo, res); err != nil {
		return nil, fmt.Errorf("service: %s result failed certification: %w", w.kind, err)
	}
	s.cache.Add(p.key, res, w.size(p.key, res))
	if fellBack {
		w.fillOwner(s, p, res)
	}
	return &outcome[Res]{res: res}, nil
}

// peerVerdict is forward's three-way outcome.
type peerVerdict int

const (
	peerSkip   peerVerdict = iota // not clustered, or this node owns the key
	peerDone                      // the owner answered definitively (result or terminal error)
	peerFailed                    // forwarding failed — fall back to a local search
)

// ringOwner returns the key's owner when it is another node.
func (s *Service) ringOwner(key string) (cluster.Member, bool) {
	if s.clu == nil {
		return cluster.Member{}, false
	}
	owner := s.clu.ring.Owner(key)
	return owner, owner.ID != s.clu.self.ID
}

// forward sends a missed key to its ring owner. It runs inside the
// flight body, so concurrent local requests for the same problem share
// one forward exactly as they would share one search.
func (w *workload[Req, Res, Wire]) forward(ctx context.Context, s *Service, p *problem[Req]) (*outcome[Res], error, peerVerdict) {
	owner, remote := s.ringOwner(p.key)
	if !remote {
		return nil, nil, peerSkip
	}
	pctx, span := trace.Start(ctx, "peer-lookup")
	var tp string
	if span != nil {
		span.SetStr("peer", owner.ID)
		tp = trace.Traceparent(span.TraceID(), span.IDHex())
		defer span.End()
	}
	defer recordStage(ctx, stageForward, time.Now())
	// The flight context carries no deadline of its own (it lives while
	// any waiter does), so bound the exchange by the request's effective
	// budget: the owner clamps the forwarded TimeoutMS the same way and
	// the grace keeps a just-in-time answer deliverable.
	cctx, cancel := context.WithTimeout(pctx, s.EffectiveTimeout(p.timeoutMS)+peerLookupGrace)
	defer cancel()
	lreq := &cluster.LookupRequest{Kind: w.kind, Key: p.key, Problem: mustJSON(w.canonical(p)), TimeoutMS: p.timeoutMS}
	wire := new(Wire)
	resp, err := s.clu.client.Lookup(cctx, owner, lreq, wire, tp)
	if err != nil {
		var perr *cluster.PeerError
		if errors.As(err, &perr) && perr.Status == http.StatusUnprocessableEntity {
			// The owner ran the search and reached a definite answer about
			// the problem — infeasible within the explored bound, or
			// arithmetic past int64 — not a failure to degrade around.
			// Counted as a miss: the owner did search for us.
			s.met.forward[peerMiss].Add(1)
			if span != nil {
				span.SetStr("disposition", "unprocessable")
			}
			return nil, &peerVerdictError{peer: owner.ID, msg: perr.Err}, peerDone
		}
		s.met.forward[peerError].Add(1)
		if span != nil {
			span.SetStr("error", err.Error())
		}
		if ctx.Err() != nil {
			// The flight itself is dead (every waiter detached): a local
			// fallback search would be cancelled work.
			return nil, ctx.Err(), peerDone
		}
		// A 400 lands here too: that is how a node of an earlier protocol
		// version answers this body, so a mixed-version cluster degrades
		// to local searches.
		return nil, nil, peerFailed
	}
	res, err := w.accept(cctx, p, wire)
	if err != nil {
		// The owner answered 200 with a result that fails certification —
		// version skew or a corrupt peer. Treated like unreachability:
		// search locally rather than serve a bad mapping.
		s.met.forward[peerError].Add(1)
		if span != nil {
			span.SetStr("error", err.Error())
		}
		return nil, nil, peerFailed
	}
	switch resp.Disposition {
	case cluster.DispositionHit:
		s.met.forward[peerHit].Add(1)
	case cluster.DispositionShared:
		s.met.forward[peerShared].Add(1)
	default:
		s.met.forward[peerMiss].Add(1)
	}
	if span != nil {
		span.SetStr("disposition", resp.Disposition)
	}
	// Forward-then-fill: repeat traffic for this key on this node is
	// local from here on.
	s.cache.Add(p.key, res, w.size(p.key, res))
	return &outcome[Res]{res: res, viaPeer: true, peerDisposition: resp.Disposition}, nil, peerDone
}

// fillOwner pushes a locally-searched result to the key's ring owner
// after a failed forward, converging the cluster back onto "the owner
// holds its keys" once the owner returns. Best-effort: a failure only
// counts a metric. The goroutine registers with begin() so Close still
// drains it.
func (w *workload[Req, Res, Wire]) fillOwner(s *Service, p *problem[Req], res Res) {
	owner, remote := s.ringOwner(p.key)
	if !remote {
		return
	}
	done, err := s.begin()
	if err != nil {
		return
	}
	freq := w.fillRequest(p, res)
	go func() {
		defer done()
		ctx, cancel := context.WithTimeout(context.Background(), s.clu.fillTimeout)
		defer cancel()
		if err := s.clu.client.Fill(ctx, owner, freq); err != nil {
			s.met.fills[fillSendError].Add(1)
			return
		}
		s.met.fills[fillSent].Add(1)
	}()
}

// fillRequest is the fill body for one result.
func (w *workload[Req, Res, Wire]) fillRequest(p *problem[Req], res Res) *cluster.FillRequest {
	return &cluster.FillRequest{Kind: w.kind, Key: p.key, Problem: mustJSON(w.canonical(p)), Result: mustJSON(w.toWire(res))}
}

// fromPeer rebuilds a peer's canonical request: strict decoding, full
// request validation, re-canonicalization, and a recomputed composite
// key that must match the sender's — so a confused or malicious peer
// cannot make this node cache under a key it would never derive itself.
func (w *workload[Req, Res, Wire]) fromPeer(key string, data json.RawMessage) (*problem[Req], error) {
	if key == "" {
		return nil, badRequest("service: peer %s problem carries no key", w.kind)
	}
	req := new(Req)
	if err := decodeStrict(data, req); err != nil {
		return nil, badRequest("service: invalid peer %s problem: %v", w.kind, err)
	}
	algo, dims, err := w.validate(req)
	if err != nil {
		return nil, err
	}
	p := w.newProblem(req, algo, dims, 0)
	if p.key != key {
		return nil, badRequest("service: peer %s key %q does not match recomputed key %q", w.kind, key, p.key)
	}
	return &p, nil
}

// accept rebuilds a peer-supplied result and certifies it — the
// cache-poisoning defense shared by lookup answers and fills.
func (w *workload[Req, Res, Wire]) accept(ctx context.Context, p *problem[Req], wire *Wire) (Res, error) {
	res, err := w.fromWire(p.canon.Algo, p.dims, wire)
	if err == nil {
		err = w.certify(ctx, p.canon.Algo, res)
	}
	if err != nil {
		var zero Res
		return zero, fmt.Errorf("service: peer %s result rejected: %w", w.kind, err)
	}
	return res, nil
}

// peerLeg is the face a workload shows the peer handlers, which pick
// it by the body's kind.
type peerLeg interface {
	lookup(ctx context.Context, s *Service, lreq *cluster.LookupRequest) (*cluster.LookupResponse, error)
	fill(ctx context.Context, s *Service, freq *cluster.FillRequest) error
}

func peerLegFor(kind string) (peerLeg, error) {
	switch kind {
	case mapWorkload.kind:
		return mapWorkload, nil
	case paretoWorkload.kind:
		return paretoWorkload, nil
	}
	return nil, badRequest("service: unknown peer workload kind %q", kind)
}

// lookup answers one forwarded problem as its ring owner: cache first,
// then the same flight group origin requests use — so an origin request
// and a forwarded one for the same problem share a single search. The
// flight is opened with forwarding disabled, which bounds every forward
// chain at origin → owner.
func (w *workload[Req, Res, Wire]) lookup(ctx context.Context, s *Service, lreq *cluster.LookupRequest) (*cluster.LookupResponse, error) {
	p, err := w.fromPeer(lreq.Key, lreq.Problem)
	if err != nil {
		return nil, err
	}
	p.timeoutMS = lreq.TimeoutMS
	if v, ok := s.cache.Get(p.key); ok {
		s.met.served[peerHit].Add(1)
		return &cluster.LookupResponse{Disposition: cluster.DispositionHit, Result: w.toWire(v.(Res))}, nil
	}
	out, leader, err := w.flight(ctx, s, p, false)
	if err != nil {
		return nil, err
	}
	disposition := cluster.DispositionShared
	switch {
	case !leader:
		s.met.served[peerShared].Add(1)
	case out.fromCache:
		disposition = cluster.DispositionHit
		s.met.served[peerHit].Add(1)
	default:
		disposition = cluster.DispositionMiss
		s.met.served[peerMiss].Add(1)
	}
	return &cluster.LookupResponse{Disposition: disposition, Result: w.toWire(out.res)}, nil
}

// fill accepts a best-effort cache push from a peer that searched one
// of this node's keys while it was unreachable. The result is
// certified before it enters the cache.
func (w *workload[Req, Res, Wire]) fill(ctx context.Context, s *Service, freq *cluster.FillRequest) error {
	p, err := w.fromPeer(freq.Key, freq.Problem)
	if err != nil {
		return err
	}
	wire := new(Wire)
	if err := decodeStrict(freq.Result, wire); err != nil {
		return badRequest("service: invalid peer %s result: %v", w.kind, err)
	}
	res, err := w.accept(ctx, p, wire)
	if err != nil {
		return &BadRequestError{Err: err}
	}
	s.cache.Add(p.key, res, w.size(p.key, res))
	return nil
}

// PeerLookup answers one forwarded problem of any workload as its ring
// owner (POST /peer/v1/lookup).
func (s *Service) PeerLookup(ctx context.Context, lreq *cluster.LookupRequest) (*cluster.LookupResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	leg, err := peerLegFor(lreq.Kind)
	if err != nil {
		return nil, err
	}
	return leg.lookup(ctx, s, lreq)
}

// PeerFill stores a pushed result of any workload once it certifies
// (POST /peer/v1/fill).
func (s *Service) PeerFill(ctx context.Context, freq *cluster.FillRequest) (*cluster.FillResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	leg, err := peerLegFor(freq.Kind)
	if err == nil {
		err = leg.fill(ctx, s, freq)
	}
	if err != nil {
		s.met.fills[fillRejected].Add(1)
		return nil, err
	}
	s.met.fills[fillReceived].Add(1)
	return &cluster.FillResponse{Stored: true}, nil
}

// decodeStrict decodes one peer-body field, rejecting unknown fields as
// decodeJSON does for whole bodies.
func decodeStrict(data json.RawMessage, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// mustJSON encodes a value the service built itself; those always
// encode.
func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic("service: encode peer body: " + err.Error())
	}
	return data
}

// peerVerdictError relays an owner's 422 as the answer, with the
// owner's own message: the problem is infeasible within its bounds, or
// its arithmetic passes int64.
type peerVerdictError struct {
	peer string
	msg  error
}

func (e *peerVerdictError) Error() string {
	return fmt.Sprintf("%v (decided by peer %s)", e.msg, e.peer)
}
