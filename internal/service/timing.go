package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"
)

// The per-request stage taxonomy (DESIGN.md §9). Every request passes
// through decode and encode; canonicalize/translate apply to the
// endpoints that move between request and canonical coordinates (map,
// verify); queue and search wrap the pool wait and the engine call.
const (
	stageDecode = iota
	stageCanonicalize
	stageQueue
	stageForward // clustered only: the wait on the key owner's answer
	stageSearch
	stageTranslate
	stageEncode
	numStages
)

// stageNames indexes the taxonomy for headers, metrics and logs.
var stageNames = [numStages]string{"decode", "canonicalize", "queue", "forward", "search", "translate", "encode"}

// reqTimer accumulates one request's stage durations. Writes go through
// atomics because a map flight outlives a leader that timed out: the
// flight goroutine may still be recording the search stage while the
// handler renders headers and the access-log line. Durations are stored
// as nanoseconds + 1 so zero means "stage never ran" (a stage that ran
// in 0ns still renders).
type reqTimer struct {
	id string
	ns [numStages]atomic.Int64
}

func newReqTimer(id string) *reqTimer { return &reqTimer{id: id} }

// record stores d for the stage; repeated records accumulate (e.g. the
// two cache probes around a pool wait). The first record contributes an
// extra +1 marker via CAS so the encoding stays consistent under
// concurrent recorders.
func (t *reqTimer) record(stage int, d time.Duration) {
	if t == nil {
		return
	}
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	for {
		cur := t.ns[stage].Load()
		next := cur + n
		if cur == 0 {
			next = n + 1
		}
		if t.ns[stage].CompareAndSwap(cur, next) {
			return
		}
	}
}

// duration returns the recorded duration and whether the stage ran.
func (t *reqTimer) duration(stage int) (time.Duration, bool) {
	if t == nil {
		return 0, false
	}
	n := t.ns[stage].Load()
	if n == 0 {
		return 0, false
	}
	return time.Duration(n - 1), true
}

// timingHeader renders the recorded stages in Server-Timing syntax:
// "decode;dur=0.041, search;dur=12.532" (dur in milliseconds).
func (t *reqTimer) timingHeader() string {
	var b strings.Builder
	for stage := 0; stage < numStages; stage++ {
		d, ok := t.duration(stage)
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.3f", stageNames[stage], float64(d.Nanoseconds())/1e6)
	}
	return b.String()
}

// stageAttrs renders the recorded stages as slog attributes
// ("<stage>_ms" keys), for the access-log line.
func (t *reqTimer) stageAttrs() []any {
	attrs := make([]any, 0, numStages)
	for stage := 0; stage < numStages; stage++ {
		d, ok := t.duration(stage)
		if !ok {
			continue
		}
		attrs = append(attrs, slog.Float64(stageNames[stage]+"_ms", float64(d.Nanoseconds())/1e6))
	}
	return attrs
}

// timerKey carries the reqTimer through contexts. The singleflight
// layer builds flight contexts with context.WithoutCancel(ctx), which
// preserves values — so the flight leader's timer is visible inside
// the flight body even though the flight outlives the leader's deadline.
type timerKey struct{}

func withTimer(ctx context.Context, t *reqTimer) context.Context {
	return context.WithValue(ctx, timerKey{}, t)
}

// timerFrom returns the request timer, or nil when the context carries
// none (direct Service calls outside the HTTP layer).
func timerFrom(ctx context.Context) *reqTimer {
	t, _ := ctx.Value(timerKey{}).(*reqTimer)
	return t
}

// recordStage records elapsed time since start for the context's timer,
// if any. The helper keeps call sites one line:
//
//	defer recordStage(ctx, stageSearch, time.Now())
func recordStage(ctx context.Context, stage int, start time.Time) {
	timerFrom(ctx).record(stage, time.Since(start))
}

// newRequestID returns a 16-hex-digit random request identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; degrade to
		// a counter so requests stay distinguishable.
		return fmt.Sprintf("fallback-%d", fallbackID.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Int64
