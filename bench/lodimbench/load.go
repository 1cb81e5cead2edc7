package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// senders is the client's connection count: at most this many requests
// are in flight at once. The machine the benchmark was designed on has
// two cores; the server's pool and search fan-out default to the same.
const senders = 2

// reply is what one request (or one job's submit-wait-fetch flow)
// produced.
type reply struct {
	status int
	cache  string // X-Mapserve-Cache
	timing string // X-Mapserve-Timing
	id     string // X-Mapserve-Request
	err    error  // transport failure or client timeout
	wrong  string // the oracle's complaint, "" when the answer is right
}

// reqSpan is the client's record of one request in a traced phase.
type reqSpan struct {
	name       string
	id         string
	start, end time.Time
	status     int
	cache      string
}

// tally accumulates one phase's requests. Each sender owns one while
// the phase runs; merge combines them afterwards.
type tally struct {
	attempted  int
	failed     int // transport errors, timeouts, 5xx, 429 and wrong answers
	wrong      int
	complaints []string
	lat        []float64 // ms of every answered request, from due time (open loop) or send
	answered   int
	header     stages // Σ X-Mapserve-Timing stage ms over answered requests
	badTiming  int    // answered requests whose timing header did not parse
	cache      map[string]int
	lateSum    float64 // Σ ms by which senders started requests after their due time
	backlogMax int     // most requests due but not yet started (open loop)
	elapsed    time.Duration
	cpu        time.Duration
	spans      []reqSpan
	jobs       jobTally
}

const maxComplaints = 8

func newTally() *tally { return &tally{cache: map[string]int{}} }

// record books one request that was due at due (== sent in a closed
// loop), sent at sent and answered at done.
func (t *tally) record(r reply, due, sent, done time.Time, traced bool, name string) {
	t.attempted++
	switch {
	case r.err != nil:
		t.failed++
		t.complain(r.err.Error())
		return
	case r.wrong != "":
		t.failed++
		t.wrong++
		t.complain(r.wrong)
	case r.status >= 500 || r.status == http.StatusTooManyRequests:
		t.failed++
		t.complain(http.StatusText(r.status))
	}
	t.answered++
	t.lat = append(t.lat, ms(done.Sub(due)))
	if r.timing != "" {
		st, ok := parseTiming(r.timing)
		if !ok {
			t.badTiming++
		}
		t.header.add(&st)
	}
	if r.cache != "" {
		t.cache[r.cache]++
	}
	if traced {
		t.spans = append(t.spans, reqSpan{name: name, id: r.id, start: sent, end: done, status: r.status, cache: r.cache})
	}
}

// correct counts the requests that neither failed nor got a wrong
// answer.
func (t *tally) correct() int { return t.attempted - t.failed }

func (t *tally) complain(msg string) {
	if len(t.complaints) < maxComplaints {
		t.complaints = append(t.complaints, msg)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, c := range o.complaints {
		t.complain(c)
	}
	t.lat = append(t.lat, o.lat...)
	t.answered += o.answered
	t.header.add(&o.header)
	t.badTiming += o.badTiming
	for k, v := range o.cache {
		t.cache[k] += v
	}
	t.lateSum += o.lateSum
	t.backlogMax = max(t.backlogMax, o.backlogMax)
	t.elapsed += o.elapsed
	t.cpu += o.cpu
	t.spans = append(t.spans, o.spans...)
	t.jobs.merge(&o.jobs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sender is one client worker; it owns a response buffer and a tally.
type sender struct {
	c   *http.Client
	t   *tally
	buf bytes.Buffer
}

// do sends one request and reads the whole response body into the
// sender's buffer; the returned body is valid until the next call.
func (s *sender) do(method, url string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	s.buf.Reset()
	if _, err := s.buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	return resp, s.buf.Bytes(), nil
}

// post sends a JSON body and fills the reply's status and
// observability headers.
func (s *sender) post(url string, body []byte) (reply, []byte) {
	resp, b, err := s.do(http.MethodPost, url, body)
	if err != nil {
		return reply{err: err}, nil
	}
	return reply{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Mapserve-Cache"),
		timing: resp.Header.Get("X-Mapserve-Timing"),
		id:     resp.Header.Get("X-Mapserve-Request"),
	}, b
}

// sendFunc issues request i of a phase's stream from sender s.
type sendFunc func(s *sender, i int) (reply, string)

// closedLoop runs the senders back to back: each sends its next request
// as soon as its previous one is answered. Request indices start at
// first; the phase ends after n requests (n > 0) or, with n ≤ 0, at the
// first index taken after until. Latency is timed from send.
func closedLoop(c *http.Client, first, n int, until time.Time, traced bool, fn sendFunc) *tally {
	var next atomic.Int64
	next.Store(int64(first))
	return runSenders(c, func(s *sender) {
		for {
			i := int(next.Add(1) - 1)
			if (n > 0 && i >= first+n) || (n <= 0 && !time.Now().Before(until)) {
				return
			}
			sent := time.Now()
			r, name := fn(s, i)
			s.t.record(r, sent, sent, time.Now(), traced, name)
		}
	})
}

// openLoop sends request first+k at start+due[k] whatever the state of
// earlier requests: arrivals are independent users. Latency is timed
// from the due time, so a stall that holds both senders delays — and is
// charged to — every request that fell due during it. due must be
// ascending.
func openLoop(c *http.Client, first int, due []time.Duration, traced bool, fn sendFunc) *tally {
	start := time.Now()
	var next atomic.Int64
	return runSenders(c, func(s *sender) {
		preciseTimers()
		for {
			k := int(next.Add(1) - 1)
			if k >= len(due) {
				return
			}
			at := start.Add(due[k])
			sleepUntil(at)
			sent := time.Now()
			dueNow := sort.Search(len(due), func(j int) bool { return due[j] > sent.Sub(start) })
			s.t.backlogMax = max(s.t.backlogMax, dueNow-int(next.Load()))
			s.t.lateSum += ms(sent.Sub(at))
			r, name := fn(s, first+k)
			s.t.record(r, at, sent, time.Now(), traced, name)
		}
	})
}

// runSenders runs body on each sender, waits for all of them and
// returns their merged tally with the wall time and process CPU time of
// the phase.
func runSenders(c *http.Client, body func(s *sender)) *tally {
	ss := make([]*sender, senders)
	for i := range ss {
		ss[i] = &sender{c: c, t: newTally()}
	}
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			body(s)
		}(s)
	}
	wg.Wait()
	out := newTally()
	out.elapsed, out.cpu = time.Since(t0), cpuTime()-cpu0
	for _, s := range ss {
		out.merge(s.t)
	}
	return out
}

// preciseTimers pins the calling goroutine to its own thread and sets
// that thread's timer slack to 1ns. Runtime timers can wake a
// millisecond late, which would swamp the sub-millisecond latencies an
// open loop measures from due time; a nanosleep with no slack wakes
// within microseconds. The thread is discarded when the goroutine
// exits, taking the setting with it.
func preciseTimers() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// arrivals returns Poisson arrival offsets at rate per second over d.
func arrivals(seed int64, rate float64, d time.Duration, tag uint64) []time.Duration {
	r := newRand(seed, tagArrivals, tag)
	var out []time.Duration
	var at float64
	for {
		at += r.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
