package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lodim/internal/service"
)

// resubmitEvery makes every fifth submission of a jobs-spool pass a
// resubmission, which takes the dedup and replay path.
const resubmitEvery = 5

// jobsPass builds one pass of jobs-spool: every distinct problem
// submitted once in a seeded order, and after every four submissions a
// resubmission of the identical body of a feasible problem submitted
// earlier in the pass.
func jobsPass(probs []*problem, seed int64, pass int) []*request {
	r := newRand(seed, tagJobs, uint64(pass))
	var reqs, feasible []*request
	for _, j := range r.Perm(len(probs)) {
		if len(reqs)%resubmitEvery == resubmitEvery-1 && len(feasible) > 0 {
			reqs = append(reqs, feasible[r.Intn(len(feasible))])
		}
		req := newJobRequest(probs[j], permuted(probs[j].inst, r))
		reqs = append(reqs, req)
		if probs[j].feasible() {
			feasible = append(feasible, req)
		}
	}
	return reqs
}

// jobTally is the job tier's share of a tally.
type jobTally struct {
	submitted, deduped int
	submitMS, waitMS   float64 // Σ client time: submit round trip, submit answer to terminal event
	fetchMS            float64 // Σ client time of the result fetch
	queueMS, runMS     float64 // Σ from the job's own event timestamps, over fresh jobs
	fresh              int
	spoolBytes         int64
	spooledJobs        int
}

func (j *jobTally) merge(o *jobTally) {
	j.submitted += o.submitted
	j.deduped += o.deduped
	j.submitMS += o.submitMS
	j.waitMS += o.waitMS
	j.fetchMS += o.fetchMS
	j.queueMS += o.queueMS
	j.runMS += o.runMS
	j.fresh += o.fresh
	j.spoolBytes += o.spoolBytes
	j.spooledJobs += o.spooledJobs
}

// jobsSpool drives the durable job tier: closed-loop submit → follow
// events_url to a terminal event → fetch the result, on a node with a
// fresh spool directory for every pass.
type jobsSpool struct {
	b     *bench
	probs []*problem
	log   *accessLog
}

func prepareJobsSpool(b *bench, probs []*problem, log *accessLog) (runner, error) {
	return &jobsSpool{b: b, probs: probs, log: log}, nil
}

// warm runs cold-map's warm-up pass, so the two workloads start from the
// same process state and differ only by the job tier.
func (w *jobsSpool) warm() error {
	return (&coldMap{b: w.b, probs: w.probs}).warm()
}

// pass runs one pass against a node with a fresh spool directory under
// spools.
func (w *jobsSpool) pass(spools string, p int, or *oracle) (*passResult, error) {
	reqs := jobsPass(w.probs, w.b.opts.seed, p)
	dir := filepath.Join(spools, fmt.Sprintf("spool-%d", p))
	cfg := nodeConfig(0, w.log)
	cfg.Jobs = &service.JobsConfig{Dir: dir}
	nodes, err := startNodes(1, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		stopNodes(nodes)
		w.b.client.CloseIdleConnections()
	}()
	base := nodes[0].url
	traced := w.b.traced
	t := closedLoop(w.b.client, 0, len(reqs), time.Time{}, traced, func(s *sender, i int) (reply, string) {
		return jobFlow(s, base, reqs[i], or, traced), "job"
	})
	pr, err := finishPass(w.b.client, nodes, t, false)
	if err != nil {
		return nil, err
	}
	size, files, err := dirSize(dir)
	if err != nil {
		return nil, err
	}
	pr.t.jobs.spoolBytes, pr.t.jobs.spooledJobs = size, files
	return pr, nil
}

// measure keeps every pass's spool until the timed passes are over: on
// a disk that discards freed blocks, deleting a spool would land inside
// a later pass's timing — work of the benchmark's housekeeping, not of
// the job tier. The spools share one parent directory that outlives the
// run, so the file system places them alike from run to run; the run
// ends by deleting them and syncing, so the next run starts on a quiet
// disk.
func (w *jobsSpool) measure(d time.Duration) (*measurement, error) {
	spools := filepath.Join(w.b.opts.workdir, "spools")
	if err := os.MkdirAll(spools, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		entries, _ := os.ReadDir(spools)
		for _, e := range entries {
			os.RemoveAll(filepath.Join(spools, e.Name()))
		}
		syscall.Sync()
	}()
	return measurePasses(w.b, d, func(p int, or *oracle) (*passResult, error) {
		return w.pass(spools, p, or)
	})
}

func (w *jobsSpool) close() {}

// jobEvent is the part of a job event the benchmark reads.
type jobEvent struct {
	State string    `json:"state"`
	At    time.Time `json:"at"`
}

// jobFlow submits one job, follows its event stream to a terminal
// event and fetches the result. A feasible problem must end done with
// the recorded optimum; an infeasible one must end failed with the
// no-schedule error, which the reply reports as the 422 the synchronous
// endpoint would have answered.
func jobFlow(s *sender, base string, r *request, or *oracle, traced bool) reply {
	t0 := time.Now()
	sub, body := s.post(base+r.path, r.body)
	t1 := time.Now()
	if sub.err != nil {
		return sub
	}
	if traced {
		s.t.spans = append(s.t.spans, reqSpan{name: "jobs.submit", id: sub.id, start: t0, end: t1, status: sub.status})
	}
	out := reply{timing: sub.timing}
	if sub.status != http.StatusAccepted {
		out.status = sub.status
		out.wrong = fmt.Sprintf("POST /v1/jobs %s: HTTP %d: %s", r.prob.inst.ID, sub.status, snippet(body))
		return out
	}
	var snap struct {
		ID        string `json:"job_id"`
		Deduped   bool   `json:"deduped"`
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
		out.status = sub.status
		out.wrong = fmt.Sprintf("POST /v1/jobs %s: undecodable answer %s", r.prob.inst.ID, snippet(body))
		return out
	}

	events, err := followEvents(s, base+snap.EventsURL)
	t2 := time.Now()
	if err != nil {
		out.err = err
		return out
	}
	final := events[len(events)-1].State

	resp, res, err := s.do(http.MethodGet, base+"/v1/jobs/"+snap.ID+"/result", nil)
	t3 := time.Now()
	if err != nil {
		out.err = err
		return out
	}
	out.status = resp.StatusCode
	switch {
	case final == "done" && resp.StatusCode == http.StatusOK:
		out.wrong = or.check(r, http.StatusOK, res)
	case final == "failed" && resp.StatusCode == http.StatusConflict && strings.Contains(string(res), "no conflict-free schedule"):
		out.status = http.StatusUnprocessableEntity
		out.wrong = or.check(r, out.status, nil)
	default:
		out.wrong = fmt.Sprintf("job %s for %s ended %s; result HTTP %d: %s", snap.ID, r.prob.inst.ID, final, resp.StatusCode, snippet(res))
	}

	jt := &s.t.jobs
	jt.submitted++
	jt.submitMS += ms(t1.Sub(t0))
	jt.waitMS += ms(t2.Sub(t1))
	jt.fetchMS += ms(t3.Sub(t2))
	if snap.Deduped {
		jt.deduped++
	} else if q, run, ok := jobTimes(events); ok {
		jt.fresh++
		jt.queueMS += q
		jt.runMS += run
	}
	return out
}

// followEvents reads a job's ndjson event stream up to its first
// terminal event.
func followEvents(s *sender, url string) ([]jobEvent, error) {
	resp, err := s.c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	var events []jobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("job event %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		switch ev.State {
		case "done", "failed", "cancelled":
			return events, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("GET %s: stream ended before a terminal event", url)
}

// jobTimes returns the queue wait (first queued → last running) and the
// run time (last running → terminal) from a job's event history.
func jobTimes(events []jobEvent) (queueMS, runMS float64, ok bool) {
	var queued, running time.Time
	for _, ev := range events {
		switch ev.State {
		case "queued":
			if queued.IsZero() {
				queued = ev.At
			}
		case "running":
			running = ev.At
		}
	}
	end := events[len(events)-1].At
	if queued.IsZero() || running.IsZero() {
		return 0, 0, false
	}
	return ms(running.Sub(queued)), ms(end.Sub(running)), true
}

// dirSize returns the total size and the number of regular files in
// dir.
func dirSize(dir string) (int64, int, error) {
	var size int64
	var files int
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		files++
		return nil
	})
	return size, files, err
}
