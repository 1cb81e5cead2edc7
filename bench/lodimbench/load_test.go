package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToDueTime runs an open loop against a handler
// whose first request holds a lock for 200ms that every request needs.
// Both senders are stuck during the stall, so the requests that fell due
// meanwhile are sent late; their latency must count from their due
// time, not from when a sender got to them.
func TestOpenLoopChargesStallToDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		once.Do(func() { time.Sleep(stall) })
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var due []time.Duration
	for at := time.Duration(0); at < 400*time.Millisecond; at += 10 * time.Millisecond {
		due = append(due, at)
	}
	c := newClient()
	defer c.CloseIdleConnections()
	tl := openLoop(c, 0, due, false, func(s *sender, i int) (reply, string) {
		rep, _ := s.post(srv.URL, []byte("{}"))
		return rep, "stall"
	})
	if tl.attempted != len(due) || tl.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d, 0", tl.attempted, tl.failed, len(due))
	}
	// Requests due at 0, 10, …, 100ms waited at least 100ms for the
	// stall to clear; timed from send, only the two that held a sender
	// would.
	late := 0
	worst := 0.0
	for _, l := range tl.lat {
		if l >= 100 {
			late++
		}
		worst = max(worst, l)
	}
	if late < 10 {
		t.Errorf("%d requests report ≥100ms, want at least 10 (latencies %v)", late, tl.lat)
	}
	if worst < ms(stall)-5 {
		t.Errorf("worst latency %.1fms, want about the %v stall", worst, stall)
	}
	if tl.backlogMax < 10 {
		t.Errorf("backlog peaked at %d, want the requests queued behind the stall", tl.backlogMax)
	}
	if tl.lateSum <= 0 {
		t.Error("senders report starting on time through a stall")
	}
}

// TestClosedLoopTimesFromSend checks the closed loop's request count and
// that a slow first request does not inflate the others.
func TestClosedLoopTimesFromSend(t *testing.T) {
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(100 * time.Millisecond)
		}
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	tl := closedLoop(c, 0, 40, time.Time{}, false, func(s *sender, i int) (reply, string) {
		rep, _ := s.post(srv.URL, []byte("{}"))
		return rep, "fast"
	})
	if tl.attempted != 40 {
		t.Fatalf("attempted %d, want 40", tl.attempted)
	}
	slow := 0
	for _, l := range tl.lat {
		if l >= 50 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d requests ≥50ms, want only the stalled one", slow)
	}
}

// TestOpenWindowsIgnoreClosedLoopRate measures a served workload twice,
// once with slow and once with fast closed-loop requests, and checks
// that the open-loop windows sent the same requests both times: a
// slower commit must not receive different timed inputs.
func TestOpenWindowsIgnoreClosedLoopRate(t *testing.T) {
	b, err := newBench(options{seed: 3, smoke: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	const rate, openShare = 400.0, 0.5
	measure := func(closedDelay time.Duration) (open []int, closed int) {
		var mu sync.Mutex
		send := func(*oracle) sendFunc {
			return func(s *sender, i int) (reply, string) {
				isOpen := i%cycleStride < cycleStride/2
				mu.Lock()
				if isOpen {
					open = append(open, i)
				} else {
					closed++
				}
				mu.Unlock()
				if !isOpen {
					time.Sleep(closedDelay)
				}
				return reply{status: http.StatusOK}, "fake"
			}
		}
		if _, err := measureOpenClosed(b, nil, rate, openShare, b.scale.timed, send); err != nil {
			t.Fatal(err)
		}
		sort.Ints(open)
		return open, closed
	}
	slowOpen, slowClosed := measure(5 * time.Millisecond)
	fastOpen, fastClosed := measure(0)
	if fastClosed < 2*slowClosed {
		t.Fatalf("closed windows sent %d and %d requests; the test needs clearly different rates", slowClosed, fastClosed)
	}
	cycles := int(b.scale.timed / b.scale.cycle)
	want := 0
	for c := 0; c < cycles; c++ {
		want += len(arrivals(b.opts.seed, rate, time.Duration(float64(b.scale.cycle)*openShare), uint64(c)))
	}
	if cycles < 2 || len(slowOpen) != want || !slices.Equal(slowOpen, fastOpen) {
		t.Errorf("%d cycles: open windows sent %d and %d requests (want %d), equal %v",
			cycles, len(slowOpen), len(fastOpen), want, slices.Equal(slowOpen, fastOpen))
	}
}

func TestArrivalsAreSeededPoisson(t *testing.T) {
	a := arrivals(1, 1000, 2*time.Second, 0)
	b := arrivals(1, 1000, 2*time.Second, 0)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("the same seed gave different arrivals")
	}
	if c := arrivals(2, 1000, 2*time.Second, 0); len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed gave the same arrivals")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 2s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals are not ascending")
		}
	}
}

// TestReferenceProbes starts the reference process (a copy of the test
// binary, through TestMain) and checks that each probe answers with a
// rate and that this idle process's CPU share during the probes is
// small.
func TestReferenceProbes(t *testing.T) {
	r, err := newReference(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for k := 0; k < 3; k++ {
		if rate := r.probe(); rate <= 0 {
			t.Fatalf("probe %d: rate %v, err %v", k, rate, r.err)
		}
	}
	if r.err != nil || r.idleShare() > 0.5 {
		t.Errorf("err %v, idle share %v", r.err, r.idleShare())
	}
}
