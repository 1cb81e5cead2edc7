package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sn, ok := m.Get(id); ok && sn.State == want {
			return sn
		}
		time.Sleep(2 * time.Millisecond)
	}
	sn, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (last state %s)", id, want, sn.State)
	return Snapshot{}
}

func TestIDDeterministic(t *testing.T) {
	a := ID("map", "v1|mu=2,3|D=...")
	b := ID("map", "v1|mu=2,3|D=...")
	if a != b {
		t.Fatalf("same inputs gave %s and %s", a, b)
	}
	if c := ID("verify", "v1|mu=2,3|D=..."); c == a {
		t.Fatalf("kind not part of the identity: %s", c)
	}
	if len(a) != 17 || a[0] != 'j' {
		t.Fatalf("unexpected ID shape %q", a)
	}
}

func TestLifecycleAndDedup(t *testing.T) {
	var runs sync.Map
	m, err := Open(Config{
		Dir:     t.TempDir(),
		Workers: 2,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			n, _ := runs.LoadOrStore(string(payload), new(int))
			*(n.(*int))++
			return []byte(`{"ok":true}` + "\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	sn, err := m.Submit("map", "acme", "k1", []byte(`{"p":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Deduped {
		t.Fatal("fresh submission reported deduped")
	}
	done := waitState(t, m, sn.ID, StateDone)
	if string(done.Result) != `{"ok":true}`+"\n" {
		t.Fatalf("result = %q", done.Result)
	}
	// Events trace the canonical path.
	var states []State
	for _, ev := range done.Events {
		states = append(states, ev.State)
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", states, want)
	}
	for i, ev := range done.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	// Same (kind, key) dedups onto the finished job without re-running.
	again, err := m.Submit("map", "acme", "k1", []byte(`{"p":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.ID != sn.ID || again.State != StateDone {
		t.Fatalf("dedup snapshot = %+v", again)
	}
	if n, _ := runs.Load(`{"p":1}`); *(n.(*int)) != 1 {
		t.Fatalf("executor ran %d times, want 1", *(n.(*int)))
	}
	st := m.Stats()
	if st.Submitted != 1 || st.Deduped != 1 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailureAndResubmit(t *testing.T) {
	fail := true
	m, err := Open(Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			if fail {
				return nil, errors.New("engine exploded")
			}
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	sn, err := m.Submit("map", "", "kf", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, sn.ID, StateFailed)
	if failed.Error != "engine exploded" {
		t.Fatalf("error = %q", failed.Error)
	}
	// Resubmitting a failed job re-arms it under the same ID.
	fail = false
	re, err := m.Submit("map", "", "kf", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if re.ID != sn.ID || re.Deduped {
		t.Fatalf("resubmit snapshot = %+v", re)
	}
	waitState(t, m, sn.ID, StateDone)
}

func TestRetryableRequeues(t *testing.T) {
	attempts := 0
	var mu sync.Mutex
	m, err := Open(Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			mu.Lock()
			attempts++
			n := attempts
			mu.Unlock()
			if n < 3 {
				return nil, &RetryableError{Err: errors.New("overloaded")}
			}
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sn, err := m.Submit("map", "", "kr", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, sn.ID, StateDone)
	if done.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", done.Attempts)
	}
	if st := m.Stats(); st.Requeued != 2 {
		t.Fatalf("requeued = %d, want 2", st.Requeued)
	}
}

func TestRetryableExhaustsAttempts(t *testing.T) {
	m, err := Open(Config{
		Dir:         t.TempDir(),
		Workers:     1,
		MaxAttempts: 2,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			return nil, &RetryableError{Err: errors.New("still overloaded")}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sn, err := m.Submit("map", "", "ke", nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, sn.ID, StateFailed)
	if failed.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", failed.Attempts)
	}
}

func TestQueueFullPerTenant(t *testing.T) {
	gate := make(chan struct{})
	m, err := Open(Config{
		Dir:            t.TempDir(),
		Workers:        1,
		PerTenantQueue: 1,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			select {
			case <-gate:
				return []byte("{}\n"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(gate)

	a, err := m.Submit("map", "acme", "q1", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning) // occupies the worker, leaves the queue
	if _, err := m.Submit("map", "acme", "q2", nil); err != nil {
		t.Fatal(err) // fills acme's queue slot
	}
	_, err = m.Submit("map", "acme", "q3", nil)
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Tenant != "acme" {
		t.Fatalf("err = %v, want QueueFullError for acme", err)
	}
	if qf.Depth != 1 || qf.Limit != 1 {
		t.Fatalf("depth/limit = %d/%d, want 1/1", qf.Depth, qf.Limit)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d", st.Rejected)
	}
	// The bound is per tenant: another tenant still gets in.
	if _, err := m.Submit("map", "globex", "q4", nil); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

func TestFairRoundRobinAcrossTenants(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	m, err := Open(Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			<-gate
			mu.Lock()
			order = append(order, string(payload))
			mu.Unlock()
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Hold the single worker on a sentinel job so the backlog builds up
	// in a known order: tenant A floods three jobs, then B and C submit
	// one each. Fair dispatch must interleave B and C ahead of A's tail.
	first, err := m.Submit("map", "z", "hold", []byte("z0"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	var last Snapshot
	for i, sub := range []struct{ tenant, key string }{
		{"a", "a1"}, {"a", "a2"}, {"a", "a3"}, {"b", "b1"}, {"c", "c1"},
	} {
		sn, err := m.Submit("map", sub.tenant, sub.key, []byte(fmt.Sprintf("%s#%d", sub.tenant, i)))
		if err != nil {
			t.Fatal(err)
		}
		last = sn
	}
	close(gate)
	waitState(t, m, last.ID, StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 6 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	// After the sentinel, round-robin over {a, b, c} gives one job per
	// tenant per cycle: a1, b1, c1, then a's remaining backlog.
	want := []string{"z0", "a#0", "b#3", "c#4", "a#1", "a#2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	m, err := Open(Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			started <- string(payload)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	run, err := m.Submit("map", "", "c-run", []byte("run"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit("map", "", "c-queued", []byte("queued"))
	if err != nil {
		t.Fatal(err)
	}
	// Cancelling the queued job removes it before dispatch.
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	sn := waitState(t, m, queued.ID, StateCancelled)
	if sn.Attempts != 0 {
		t.Fatalf("cancelled-queued job ran %d times", sn.Attempts)
	}
	// Cancelling the running job frees the worker slot: a fresh job can
	// only reach the executor if the slot came back.
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, run.ID, StateCancelled)
	next, err := m.Submit("map", "", "c-next", []byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-started:
		if got != "next" {
			t.Fatalf("executor saw %q, want next", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker slot never released after cancellation")
	}
	if _, err := m.Cancel(next.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, next.ID, StateCancelled)
	// Cancelling a terminal job is refused.
	if _, err := m.Cancel(next.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel terminal = %v, want ErrTerminal", err)
	}
	if _, err := m.Cancel("jdeadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	m1, err := Open(Config{
		Dir:     dir,
		Workers: 1,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			entered <- struct{}{}
			select {
			case <-hold:
				return []byte("{}\n"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	running, err := m1.Submit("map", "t", "kr1", []byte(`{"r":1}`))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	queuedJob, err := m1.Submit("map", "t", "kr2", []byte(`{"r":2}`))
	if err != nil {
		t.Fatal(err)
	}
	m1.Close() // interrupts the running job; both jobs stay spooled

	// A new manager on the same spool resumes both and completes them.
	m2, err := Open(Config{
		Dir:     dir,
		Workers: 2,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			return append([]byte("done:"), payload...), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if st := m2.Stats(); st.Resumed != 2 {
		t.Fatalf("resumed = %d, want 2", st.Resumed)
	}
	for _, id := range []string{running.ID, queuedJob.ID} {
		sn := waitState(t, m2, id, StateDone)
		found := false
		for _, ev := range sn.Events {
			if ev.State == StateQueued && len(ev.Detail) >= 7 && ev.Detail[:7] == "resumed" {
				found = true
			}
		}
		if !found {
			t.Fatalf("job %s missing resumed event: %+v", id, sn.Events)
		}
	}
	// Identity is stable across the restart: resubmitting dedups.
	sn, err := m2.Submit("map", "t", "kr1", []byte(`{"r":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Deduped || sn.ID != running.ID {
		t.Fatalf("post-restart dedup = %+v", sn)
	}
}

// A job that was already done at shutdown must replay its result
// byte-for-byte after a restart. The spool stores the result as raw
// bytes precisely so its own (indented) encoder cannot reformat an
// embedded JSON body — and so non-JSON executor output survives too.
func TestDoneJobResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	// Indented JSON with a trailing newline, like the service writes —
	// the shape a raw-JSON spool field would silently re-indent.
	want := "{\n  \"total_time\": 25,\n  \"list\": [\n    1,\n    2\n  ]\n}\n"
	exec := func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
		return []byte(want), nil
	}
	m1, err := Open(Config{Dir: dir, Workers: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := m1.Submit("map", "", "kdone", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, sn.ID, StateDone)
	m1.Close()

	m2, err := Open(Config{Dir: dir, Workers: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, ok := m2.Get(sn.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("done job not adopted: ok=%v state=%s", ok, got.State)
	}
	if string(got.Result) != want {
		t.Fatalf("result mutated across restart:\n got %q\nwant %q", got.Result, want)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (done job must not re-run)", got.Attempts)
	}
}

func TestSubscribeStreams(t *testing.T) {
	gate := make(chan struct{})
	m, err := Open(Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
			<-gate
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sn, err := m.Submit("map", "", "ks", nil)
	if err != nil {
		t.Fatal(err)
	}
	history, ch, cancel, err := m.Subscribe(sn.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if len(history) < 1 || history[0].State != StateQueued {
		t.Fatalf("history = %+v", history)
	}
	close(gate)
	var live []State
	for ev := range ch { // closes at the terminal transition
		live = append(live, ev.State)
	}
	if len(live) == 0 || live[len(live)-1] != StateDone {
		t.Fatalf("live events = %v", live)
	}
	// Subscribing to a terminal job returns full history and a closed
	// channel.
	history, ch, cancel, err = m.Subscribe(sn.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if len(history) != 3 {
		t.Fatalf("terminal history = %+v", history)
	}
	if _, open := <-ch; open {
		t.Fatal("terminal subscription channel not closed")
	}
	if _, _, _, err := m.Subscribe("junk"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("subscribe unknown = %v", err)
	}
}

func TestFairQueueRemoveAndRotation(t *testing.T) {
	q := newFairQueue()
	q.push("a", "a1")
	q.push("a", "a2")
	q.push("b", "b1")
	if !q.remove("a", "a1") {
		t.Fatal("remove a1 failed")
	}
	if q.remove("a", "zz") {
		t.Fatal("removed a job that is not queued")
	}
	var got []string
	for {
		id, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, id)
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"a2", "b1"}) {
		t.Fatalf("pop order = %v", got)
	}
	if q.size != 0 || q.tenantLen("a") != 0 {
		t.Fatalf("queue not drained: size=%d", q.size)
	}
}

// TestCorruptSpoolFileQuarantined: damaged spool lines — a garbage
// line in the middle of the log, a torn record at its tail — are
// skipped on Open, never adopted and never fatal, while every intact
// job survives; the compaction at Open drops them along with stray temp
// files.
func TestCorruptSpoolFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	exec := func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
		return []byte("{}\n"), nil
	}
	m1, err := Open(Config{Dir: dir, Workers: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, key := range []string{"kc1", "kc2", "kc3"} {
		sn, err := m1.Submit("map", "", key, nil)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m1, sn.ID, StateDone)
		ids = append(ids, sn.ID)
	}
	m1.Close()

	// A garbage line in the middle, a torn record of a fourth job at the
	// tail, and a stray temp file.
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	mid := len(lines) / 2
	damaged := strings.Join(lines[:mid], "") + "{torn\n" + strings.Join(lines[mid:], "")
	torn := &job{id: ID("map", "kc4"), kind: "map", key: "kc4", state: StateQueued}
	line := frame(t, torn.record())
	damaged += string(line[:len(line)/2])
	if err := writeFile(logPath, []byte(damaged)); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(logPath+".tmp-123", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir, Workers: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, ok := m2.Get(torn.id); ok {
		t.Fatal("torn record was adopted")
	}
	for _, id := range ids {
		if sn, ok := m2.Get(id); !ok || sn.State != StateDone || string(sn.Result) != "{}\n" {
			t.Fatalf("intact job %s lost or changed: ok=%v %+v", id, ok, sn)
		}
	}
	assertOnlyLog(t, dir)
}

// TestAppendEventMonotoneClamp: the event log promises monotone
// timestamps, but call sites stamp wall-clock time, which can step
// backwards under NTP correction — and a spool written before such a
// step resumes with future-dated events. A backwards stamp is clamped
// to the previous event's time; forward stamps pass through untouched.
func TestAppendEventMonotoneClamp(t *testing.T) {
	j := &job{}
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	j.appendEvent(StateQueued, "submitted", base)
	j.appendEvent(StateRunning, "", base.Add(time.Second))

	// The clock steps back ten seconds mid-run.
	ev := j.appendEvent(StateDone, "", base.Add(-9*time.Second))
	if !ev.At.Equal(base.Add(time.Second)) {
		t.Errorf("backwards stamp not clamped: got %v, want %v", ev.At, base.Add(time.Second))
	}

	// Forward time after the clamp is honored as-is.
	ev = j.appendEvent(StateQueued, "resubmitted", base.Add(2*time.Second))
	if !ev.At.Equal(base.Add(2 * time.Second)) {
		t.Errorf("forward stamp altered: got %v, want %v", ev.At, base.Add(2*time.Second))
	}

	// The whole log is monotone with dense sequence numbers.
	for i, e := range j.events {
		if e.Seq != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
		if i > 0 && e.At.Before(j.events[i-1].At) {
			t.Errorf("event %d at %v precedes event %d at %v", i, e.At, i-1, j.events[i-1].At)
		}
	}
}
