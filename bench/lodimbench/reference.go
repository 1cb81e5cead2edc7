package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The machine-speed reference. The machines lodimbench runs on share
// their cores with other tenants, and the same process doing the same
// work runs up to half as fast for minutes at a time. After every cycle
// (or pass), while the program stands idle, lodimbench therefore
// measures a fixed reference that contains no lodim code — a loopback
// net/http echo that decodes a map-sized JSON body and encodes a
// hit-sized JSON answer, driven by a two-sender client — and expresses
// the run's timings at the nominal reference rate: in a run whose probes
// averaged half the nominal rate, durations count half and rates double.
// Timings of the program then compare across machine states, while a
// change to the program moves them. A pure CPU loop timed during the
// same runs followed the machine's slow stretches only halfway; the
// echo, which shares the program's mix of system calls, memory traffic
// and computation, followed them (run-level correlation about 0.96).
//
// The reference runs in a process of its own, so that nothing the
// program does can slow it: not the program's heap, which the garbage
// collector of a shared process would mark during the probe, nor the
// program's goroutines, which are idle while it runs. The program's own
// CPU time during the probes is measured (bench.idle_cpu_share), so that
// a program that keeps working while idle shows.
//
// nominalEcho is the reference's rate, in requests per second, on the
// two-core machine lodimbench was calibrated on when that machine ran
// at its quiet speed. It only sets the scale of the reported timings.
const nominalEcho = 45000.0

// referenceEnv names the environment variable that makes a lodimbench
// process (or its test binary) the reference process; its value is the
// length of one probe.
const referenceEnv = "LODIMBENCH_REFERENCE_PROBE"

var (
	echoBody  = []byte(`{"bounds":[4,5,6],"dependencies":[[1,0,0],[0,1,0],[0,0,1]],"dims":1}`)
	echoReply = struct {
		Algorithm string    `json:"algorithm"`
		Dim       int       `json:"n"`
		Bounds    []int64   `json:"mu"`
		S         [][]int64 `json:"space_mapping"`
		Pi        []int64   `json:"schedule"`
		TotalTime int64     `json:"total_time"`
		Key       string    `json:"canonical_key"`
	}{"custom", 3, []int64{4, 5, 6}, [][]int64{{1, 1, -1}}, []int64{1, 5, 1}, 36,
		"v1|mu=4,5,6|D=0,0,1;0,1,0;1,0,0|dims=1|me=0|ww=0|mc=0"}
)

// echo decodes the request body and answers with the fixed reply,
// encoded with the service's encoder settings.
func echo(w http.ResponseWriter, r *http.Request) {
	var body map[string]any
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(echoReply)
}

// reference is the benchmark's handle on the reference process: each
// line written to it asks for one probe, and it answers with the rate.
type reference struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	idle time.Duration // the program's CPU time during the probes
	wall time.Duration // the probes' wall time
	err  error         // the first failed probe
}

// newReference starts the reference process, a copy of the running
// executable; each probe lasts probeD.
func newReference(probeD time.Duration) (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), referenceEnv+"="+probeD.String())
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// probe returns the reference's closed-loop rate over one probe. A
// failed probe returns 0 and is kept in r.err.
func (r *reference) probe() float64 {
	cpu, start := cpuTime(), time.Now()
	rate, err := r.ask()
	r.idle += cpuTime() - cpu
	r.wall += time.Since(start)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("reference probe: %w", err)
	}
	return rate
}

func (r *reference) ask() (float64, error) {
	if _, err := io.WriteString(r.in, "probe\n"); err != nil {
		return 0, err
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// idleShare is the program's CPU time during the probes over their wall
// time: near 0 when the program stood idle while the reference ran.
func (r *reference) idleShare() float64 {
	return ratio(r.idle.Seconds(), r.wall.Seconds())
}

// close ends the reference process and waits for it.
func (r *reference) close() {
	r.in.Close()
	r.cmd.Wait()
}

// serveReference is the reference process. It starts the echo server
// and, for each line read from in, drives it closed-loop for probeD and
// writes the rate to out. It returns when in ends.
func serveReference(probeD time.Duration, in io.Reader, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(echo)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	c, url := newClient(), "http://"+ln.Addr().String()
	defer c.CloseIdleConnections()
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		t := closedLoop(c, 0, 0, time.Now().Add(probeD), false, func(s *sender, i int) (reply, string) {
			rep, _ := s.post(url, echoBody)
			return rep, "echo"
		})
		if t.correct() == 0 {
			return fmt.Errorf("no echo answered: %v", t.complaints)
		}
		if _, err := fmt.Fprintf(out, "%g\n", ratio(float64(t.correct()), t.elapsed.Seconds())); err != nil {
			return err
		}
	}
	return lines.Err()
}

// runReference serves as the reference process when the environment
// asks for it, and reports whether it did.
func runReference() bool {
	v, ok := os.LookupEnv(referenceEnv)
	if !ok {
		return false
	}
	probeD, err := time.ParseDuration(v)
	if err == nil {
		err = serveReference(probeD, os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lodimbench reference:", err)
		os.Exit(2)
	}
	return true
}
