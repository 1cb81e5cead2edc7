package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Executor runs one job attempt and returns the result body to store.
// Wrapping the error in *RetryableError asks the manager to re-queue
// the attempt instead of failing the job.
type Executor func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error)

// Config sizes a Manager.
type Config struct {
	// Dir is the spool directory (required). It is created if absent;
	// jobs found in it on Open are adopted — queued and running ones
	// re-enter the queue, terminal ones stay retrievable.
	Dir string
	// Workers is the execution fan-out (≤ 0 selects 2).
	Workers int
	// PerTenantQueue bounds each tenant's queued-job backlog
	// (≤ 0 selects 64). Running jobs don't count against it.
	PerTenantQueue int
	// MaxAttempts caps executor runs per job including retries of
	// transient failures (≤ 0 selects 8).
	MaxAttempts int
	// Exec runs job attempts (required).
	Exec Executor
	// Logger, when non-nil, receives job lifecycle lines.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.PerTenantQueue <= 0 {
		c.PerTenantQueue = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	return c
}

// Stats is the counter snapshot the service renders on /metrics.
type Stats struct {
	Submitted int64 // accepted submissions that created or re-queued a job
	Deduped   int64 // submissions answered by an existing job
	Rejected  int64 // submissions refused by the per-tenant queue bound
	Done      int64
	Failed    int64
	Cancelled int64
	Resumed   int64 // jobs re-queued from the spool on Open
	Requeued  int64 // transient-failure retries
	Queued    int64 // gauge: jobs waiting for a worker
	Running   int64 // gauge: jobs holding a worker
}

// Manager owns the job table, the fair queue, the spool, and the
// worker pool. Create with Open, stop with Close.
type Manager struct {
	cfg Config
	st  *store

	mu     sync.Mutex
	cond   *sync.Cond // signals queue activity and shutdown
	jobs   map[string]*job
	q      *fairQueue
	closed bool
	wg     sync.WaitGroup

	submitted atomic.Int64
	deduped   atomic.Int64
	rejected  atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	resumed   atomic.Int64
	requeued  atomic.Int64
	running   atomic.Int64
}

// Open loads the spool, re-queues every non-terminal job it finds
// (stamping a "resumed" transition), and starts the worker pool.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	st, recs, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg, st: st, jobs: make(map[string]*job), q: newFairQueue()}
	m.cond = sync.NewCond(&m.mu)
	for _, r := range recs {
		j := jobFromRecord(r)
		m.jobs[j.id] = j
		if j.state.Terminal() {
			continue
		}
		// Queued jobs come straight back; a job spooled as running was
		// interrupted mid-execution and restarts from scratch (executors
		// are pure functions of the problem, so re-running is safe).
		detail := "resumed after restart"
		if j.state == StateRunning {
			detail = "resumed after restart (was running)"
			j.started = time.Time{}
		}
		j.state = StateQueued
		j.appendEvent(StateQueued, detail, time.Now().UTC())
		m.persist(j)
		m.q.push(j.tenant, j.id)
		m.resumed.Add(1)
		m.logf("job resumed", j)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Close stops accepting work, cancels running jobs (their spool
// records keep the running state, so a later Open re-queues them),
// waits for the workers to exit, and closes the spool log. Safe to call
// more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	for _, j := range m.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	m.st.close()
	m.mu.Unlock()
}

// Submit registers a job for (kind, key), deduplicating on the
// deterministic ID: an existing queued, running, or done job answers
// the submission as-is (deduped = true); a failed or cancelled one is
// re-armed under the same ID. The payload is stored verbatim and
// handed to the Executor on dispatch.
func (m *Manager) Submit(kind, tenant, key string, payload json.RawMessage) (Snapshot, error) {
	id := ID(kind, key)
	now := time.Now().UTC()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrClosed
	}
	if j, ok := m.jobs[id]; ok {
		switch {
		case !j.state.Terminal() || j.state == StateDone:
			m.deduped.Add(1)
			sn := j.snapshot()
			sn.Deduped = true
			return sn, nil
		default: // failed or cancelled: re-arm
			if depth := m.q.tenantLen(j.tenant); depth >= m.cfg.PerTenantQueue {
				m.rejected.Add(1)
				return Snapshot{}, &QueueFullError{Tenant: j.tenant, Depth: depth, Limit: m.cfg.PerTenantQueue}
			}
			j.state = StateQueued
			j.finished = time.Time{}
			j.started = time.Time{}
			j.errMsg = ""
			j.result = nil
			j.attempts = 0
			j.cancelRequested = false
			ev := j.appendEvent(StateQueued, "resubmitted", now)
			m.persist(j)
			m.notify(j, ev)
			m.q.push(j.tenant, j.id)
			m.submitted.Add(1)
			m.cond.Signal()
			m.logf("job resubmitted", j)
			return j.snapshot(), nil
		}
	}
	if depth := m.q.tenantLen(tenant); depth >= m.cfg.PerTenantQueue {
		m.rejected.Add(1)
		return Snapshot{}, &QueueFullError{Tenant: tenant, Depth: depth, Limit: m.cfg.PerTenantQueue}
	}
	j := &job{
		id:      id,
		kind:    kind,
		tenant:  tenant,
		key:     key,
		payload: append(json.RawMessage(nil), payload...),
		state:   StateQueued,
		created: now,
	}
	j.appendEvent(StateQueued, "submitted", now)
	m.jobs[id] = j
	m.persist(j)
	m.q.push(tenant, id)
	m.submitted.Add(1)
	m.cond.Signal()
	m.logf("job submitted", j)
	return j.snapshot(), nil
}

// Get returns a job snapshot by ID.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// Cancel stops a job: a queued one leaves the queue immediately, a
// running one has its execution context cancelled (the worker slot
// frees as soon as the executor honors it, and the job lands in the
// cancelled state). Cancelling a terminal job reports ErrTerminal.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		m.q.remove(j.tenant, j.id)
		m.finishLocked(j, StateCancelled, "cancelled while queued", nil, "")
		return j.snapshot(), nil
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		return j.snapshot(), nil
	default:
		return j.snapshot(), ErrTerminal
	}
}

// Subscribe returns the job's event history plus a live channel that
// replays every subsequent transition and closes once the job is
// terminal (immediately, for an already-terminal job). The returned
// cancel must be called when the caller stops listening.
func (m *Manager) Subscribe(id string) (history []Event, ch <-chan Event, cancel func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	history = append([]Event(nil), j.events...)
	c := make(chan Event, 64)
	if j.state.Terminal() {
		close(c)
		return history, c, func() {}, nil
	}
	if j.subs == nil {
		j.subs = make(map[int]chan Event)
	}
	idx := j.nextSub
	j.nextSub++
	j.subs[idx] = c
	cancel = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, live := j.subs[idx]; live {
			delete(j.subs, idx)
			close(c)
		}
	}
	return history, c, cancel, nil
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	queued := int64(m.q.size)
	m.mu.Unlock()
	return Stats{
		Submitted: m.submitted.Load(),
		Deduped:   m.deduped.Load(),
		Rejected:  m.rejected.Load(),
		Done:      m.done.Load(),
		Failed:    m.failed.Load(),
		Cancelled: m.cancelled.Load(),
		Resumed:   m.resumed.Load(),
		Requeued:  m.requeued.Load(),
		Queued:    queued,
		Running:   m.running.Load(),
	}
}

// worker is one pool goroutine: pop in fair order, execute, settle.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.closed && m.q.size == 0 {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		id, _ := m.q.pop()
		j := m.jobs[id]
		now := time.Now().UTC()
		j.state = StateRunning
		j.started = now
		j.attempts++
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		ev := j.appendEvent(StateRunning, "", now)
		m.persist(j)
		m.notify(j, ev)
		m.running.Add(1)
		kind, payload := j.kind, j.payload
		m.mu.Unlock()

		result, err := m.cfg.Exec(ctx, kind, payload)
		cancel()
		m.running.Add(-1)

		m.mu.Lock()
		j.cancel = nil
		switch {
		case m.closed && err != nil:
			// Shutdown interrupted the run: leave the spool record in the
			// running state so the next Open resumes this job.
			m.mu.Unlock()
			return
		case err == nil:
			m.finishLocked(j, StateDone, "", result, "")
		case j.cancelRequested:
			m.finishLocked(j, StateCancelled, "cancelled while running", nil, "")
		case isRetryable(err) && j.attempts < m.cfg.MaxAttempts:
			j.state = StateQueued
			ev := j.appendEvent(StateQueued, "requeued: "+err.Error(), time.Now().UTC())
			m.persist(j)
			m.notify(j, ev)
			m.q.push(j.tenant, j.id)
			m.requeued.Add(1)
			m.cond.Signal()
			attempts := j.attempts
			m.mu.Unlock()
			// Brief linear backoff off-lock so a saturated pool isn't
			// hammered by an instantly re-dispatched retry.
			time.Sleep(time.Duration(attempts) * 10 * time.Millisecond)
			continue
		default:
			m.finishLocked(j, StateFailed, "", nil, err.Error())
		}
		m.mu.Unlock()
	}
}

func isRetryable(err error) bool {
	var re *RetryableError
	return errors.As(err, &re)
}

// finishLocked settles a job into a terminal state: event, counters,
// spool write, subscriber notification + channel close. Caller holds
// the mutex.
func (m *Manager) finishLocked(j *job, state State, detail string, result []byte, errMsg string) {
	now := time.Now().UTC()
	j.state = state
	j.finished = now
	j.errMsg = errMsg
	if result != nil {
		j.result = append(json.RawMessage(nil), result...)
	}
	ev := j.appendEvent(state, detail, now)
	switch state {
	case StateDone:
		m.done.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	}
	m.persist(j)
	m.notify(j, ev)
	for idx, c := range j.subs {
		delete(j.subs, idx)
		close(c)
	}
	m.logf("job "+string(state), j)
}

// notify fans one event out to the job's subscribers. Sends never
// block: the channels are buffered well past the event count a job can
// produce, and a wedged reader only loses its own tail.
func (m *Manager) notify(j *job, ev Event) {
	for _, c := range j.subs {
		select {
		case c <- ev:
		default:
		}
	}
}

// persist appends the job's record to the spool log; failures are
// logged, not fatal — the in-memory tier keeps serving, durability
// degrades until the disk recovers.
func (m *Manager) persist(j *job) {
	if err := m.st.append(j.record()); err != nil && m.cfg.Logger != nil {
		m.cfg.Logger.Error("job spool write failed", slog.String("job", j.id), slog.String("error", err.Error()))
	}
}

func (m *Manager) logf(msg string, j *job) {
	if m.cfg.Logger == nil {
		return
	}
	m.cfg.Logger.Info(msg,
		slog.String("job", j.id),
		slog.String("kind", j.kind),
		slog.String("tenant", j.tenant),
		slog.String("state", string(j.state)),
		slog.Int("attempts", j.attempts))
}
