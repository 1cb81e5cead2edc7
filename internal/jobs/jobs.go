// Package jobs is the durable asynchronous job tier: problems too
// large for a single request deadline are submitted once, executed by
// a bounded worker pool with per-tenant fairness, spooled to disk at
// every state transition, and resumed after a restart. The package is
// engine-agnostic — execution is delegated to an Executor callback —
// so it depends on nothing above the standard library and can back any
// of the service's problem kinds (map, verify).
//
// Identity is deterministic: a job's ID is a hash of its kind and its
// canonical problem key, so re-submitting the same problem (in any
// axis permutation — the caller canonicalizes before keying) lands on
// the same job, before or after a restart. That makes submission
// idempotent and lets a cluster route every job endpoint by ID alone.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// State is a job's position in the lifecycle
//
//	queued → running → done | failed | cancelled
//
// with two non-terminal re-entries: running → queued when a transient
// executor failure is retried or a restart resumes a spooled job, and
// failed|cancelled → queued when the same problem is submitted again.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state ends the lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one recorded state transition. Seq increases by one per
// event within a job, so streams can resume without duplication.
type Event struct {
	Seq    int       `json:"seq"`
	State  State     `json:"state"`
	At     time.Time `json:"at"`
	Detail string    `json:"detail,omitempty"`
}

// ID derives the deterministic job identity from the job kind and the
// canonical problem key. 64 bits of SHA-256 keep accidental collision
// probability negligible at corpus scale while staying filename- and
// URL-safe.
func ID(kind, key string) string {
	sum := sha256.Sum256([]byte("job|" + kind + "|" + key))
	return "j" + hex.EncodeToString(sum[:8])
}

// Snapshot is the externally visible copy of a job, safe to hold
// after the manager's lock is released.
type Snapshot struct {
	ID      string `json:"job_id"`
	Kind    string `json:"kind"`
	Tenant  string `json:"tenant,omitempty"`
	Key     string `json:"canonical_key"`
	State   State  `json:"state"`
	Deduped bool   `json:"deduped,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Attempts counts executor runs, including retries after transient
	// failures and resumed runs after a restart.
	Attempts int `json:"attempts"`

	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`

	// Result is the stored response body of a done job — produced by
	// the executor with the exact encoder settings of the synchronous
	// endpoint, so GET /v1/jobs/{id}/result can replay it byte for
	// byte.
	Result json.RawMessage `json:"result,omitempty"`

	Events []Event `json:"events"`
}

// job is the manager-internal mutable record. All fields are guarded
// by the manager's mutex.
type job struct {
	id      string
	kind    string
	tenant  string
	key     string
	payload json.RawMessage

	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	attempts int
	errMsg   string
	result   json.RawMessage
	events   []Event

	cancel          func() // non-nil while running
	cancelRequested bool
	subs            map[int]chan Event
	nextSub         int
}

func (j *job) appendEvent(state State, detail string, at time.Time) Event {
	// The event log promises monotone timestamps (streams resume on
	// Seq, readers sort on At), but the call sites stamp wall-clock
	// time, which can step backwards under NTP correction — and a
	// spool written before such a step resumes with future-dated
	// events. Clamp every append to the previous event's time.
	if n := len(j.events); n > 0 && at.Before(j.events[n-1].At) {
		at = j.events[n-1].At
	}
	ev := Event{Seq: len(j.events), State: state, At: at, Detail: detail}
	j.events = append(j.events, ev)
	return ev
}

func (j *job) snapshot() Snapshot {
	sn := Snapshot{
		ID:       j.id,
		Kind:     j.kind,
		Tenant:   j.tenant,
		Key:      j.key,
		State:    j.state,
		Created:  j.created,
		Attempts: j.attempts,
		Error:    j.errMsg,
		Events:   append([]Event(nil), j.events...),
	}
	if !j.started.IsZero() {
		t := j.started
		sn.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		sn.Finished = &t
	}
	if j.result != nil {
		sn.Result = append(json.RawMessage(nil), j.result...)
	}
	return sn
}

// record is the on-disk shape of a job: the spool log gains one
// framed JSON line with the full record at every transition.
type record struct {
	Version  int             `json:"version"`
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Tenant   string          `json:"tenant,omitempty"`
	Key      string          `json:"key"`
	Payload  json.RawMessage `json:"payload"`
	State    State           `json:"state"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started,omitzero"`
	Finished time.Time       `json:"finished,omitzero"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	// Result is []byte (base64 on disk), not json.RawMessage: the job
	// tier promises byte-exact result replay, and embedding the result
	// as raw JSON would let the spool's encoder reformat it (it would
	// also reject non-JSON executor output outright).
	Result []byte  `json:"result,omitempty"`
	Events []Event `json:"events"`
}

const recordVersion = 1

func (j *job) record() *record {
	return &record{
		Version:  recordVersion,
		ID:       j.id,
		Kind:     j.kind,
		Tenant:   j.tenant,
		Key:      j.key,
		Payload:  j.payload,
		State:    j.state,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Attempts: j.attempts,
		Error:    j.errMsg,
		Result:   j.result,
		Events:   j.events,
	}
}

func jobFromRecord(r *record) *job {
	return &job{
		id:       r.ID,
		kind:     r.Kind,
		tenant:   r.Tenant,
		key:      r.Key,
		payload:  r.Payload,
		state:    r.State,
		created:  r.Created,
		started:  r.Started,
		finished: r.Finished,
		attempts: r.Attempts,
		errMsg:   r.Error,
		result:   r.Result,
		events:   r.Events,
	}
}

// Sentinel errors of the job tier.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal reports a cancellation attempt on a job already in a
	// terminal state.
	ErrTerminal = errors.New("jobs: job already in a terminal state")
	// ErrClosed reports a submission after the manager shut down.
	ErrClosed = errors.New("jobs: manager closed")
)

// QueueFullError reports that a tenant's queue is at capacity — the
// HTTP layer maps it to 429 with a Retry-After hint plus the rejecting
// tenant's depth and limit in the JSON error body.
type QueueFullError struct {
	Tenant string
	Depth  int // queued jobs for the tenant at rejection time
	Limit  int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobs: queue full for tenant %q (%d queued, limit %d)", e.Tenant, e.Depth, e.Limit)
}

// RetryableError marks an executor failure as transient (admission
// pressure, shutdown race): the manager re-queues the job instead of
// failing it, up to its attempt budget.
type RetryableError struct{ Err error }

func (e *RetryableError) Error() string { return e.Err.Error() }
func (e *RetryableError) Unwrap() error { return e.Err }
