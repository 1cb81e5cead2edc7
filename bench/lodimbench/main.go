// Command lodimbench is lodim's benchmark of record. It drives real
// mapserve nodes — service.New behind service.NewHandler, in process —
// over loopback HTTP with four workloads built from the committed
// scenario corpus (corpus/manifest.jsonl), checks every answer against
// the manifest's recorded optimum and the independent verifier, and
// prints every metric by name and unit.
//
// From the repository root, through the script that builds it:
//
//	bash bench/run.sh -workload cold-map -seed 1 -trace 0
//	bash bench/run.sh -workload hot-mix -trace 1 -spans out/hot-mix
//	bash bench/run.sh -workload all -smoke
//	bash bench/run.sh -workload all -repeat 5 > bench/results/seed.json
//
// A plain run (-trace 0) reports the end-to-end metrics of one workload;
// a traced run (-trace 1) reports its per-layer metrics. -workload all
// runs each workload in a process of its own; -repeat N runs each N
// times with seeds seed … seed+N−1 and reports how far every end-to-end
// metric spread. The last line of standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"} for a single workload.
// The exit status is 0 when every answer was right, 1 when one was
// wrong, and 2 when the run could not be made.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSeconds is how long a run of one workload measures, set-up not
// counted. It is fixed so that every commit is measured for the same
// time; BENCHMARK.json's run_seconds states the same number.
const runSeconds = 20

type options struct {
	workload string
	seed     int64
	trace    bool
	spans    string
	smoke    bool
	repeat   int
	manifest string
	workdir  string
}

// bit is a boolean flag that is always given its value as 0 or 1, so
// that "-trace 0" parses as one flag.
type bit bool

func (b *bit) String() string {
	if b != nil && bool(*b) {
		return "1"
	}
	return "0"
}

func (b *bit) Set(s string) error {
	switch s {
	case "0", "1":
		*b = s == "1"
		return nil
	}
	return fmt.Errorf("want 0 or 1, got %q", s)
}

func parseFlags(args []string, errOut io.Writer) (options, error) {
	var o options
	var seconds int
	fs := flag.NewFlagSet("lodimbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.workload, "workload", "all", "cold-map, hot-mix, cluster-zipf, jobs-spool, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&seconds, "seconds", runSeconds, "measured seconds per run; only "+strconv.Itoa(runSeconds)+" is accepted")
	fs.Var((*bit)(&o.trace), "trace", "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write the spans to this directory's spans.jsonl")
	fs.BoolVar(&o.smoke, "smoke", false, "half a second per run on a 96-problem subset, to exercise the harness")
	fs.IntVar(&o.repeat, "repeat", 0, "run each workload this many times and report the spread of every end-to-end metric")
	fs.StringVar(&o.manifest, "manifest", "corpus/manifest.jsonl", "the scenario corpus manifest")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for job spools")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloadByName(o.workload); !ok && o.workload != "all" {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if seconds != runSeconds {
		return o, fmt.Errorf("-seconds %d: a run measures %d seconds", seconds, runSeconds)
	}
	if o.repeat < 0 {
		return o, errors.New("-repeat must be at least 0")
	}
	return o, nil
}

func main() {
	if runReference() {
		return
	}
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lodimbench:", err)
		os.Exit(2)
	}
	os.Exit(dispatch(o, os.Stdout, os.Stderr))
}

// dispatch runs what the options ask for and returns the exit status.
func dispatch(o options, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "lodimbench:", err)
		return 2
	}
	switch {
	case o.repeat > 0:
		return runRepeat(o, stdout, stderr)
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	w, _ := workloadByName(o.workload)
	b, err := newBench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "lodimbench:", err)
		return 2
	}
	defer b.close()
	res, err := b.run(w)
	if err != nil {
		fmt.Fprintf(stderr, "lodimbench: %s: %v\n", w.name, err)
		return 2
	}
	printTable(stderr, w.name, res)
	out := jsonResult{
		Correct:   res.wrong == 0,
		Attempted: res.attempt,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range res.defs {
		out.Metrics[d.name] = jsonMetric{Value: res.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "lodimbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printTable writes a run's metrics and its first complaints.
func printTable(w io.Writer, name string, res *runResult) {
	fmt.Fprintf(w, "lodimbench: %s: %d attempted, %d failed, %d wrong\n", name, res.attempt, res.failed, res.wrong)
	for _, p := range res.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, d := range res.defs {
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", d.name, res.values[d.name], d.unit)
	}
}

// child runs one workload in a fresh process, so peak RSS and the
// garbage collector's state do not leak between workloads, and returns
// its result line.
func child(o options, name string, seed int64, trace bool, stderr io.Writer) (*jsonResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := bit(trace)
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", tr.String(), "-manifest", o.manifest, "-workdir", o.workdir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.spans != "" && trace {
		args = append(args, "-spans", filepath.Join(o.spans, name))
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (seed %d): %v; no result line", name, seed, runErr)
	}
	return &res, nil
}

// selected returns the workloads the options name.
func selected(o options) []workload {
	if w, ok := workloadByName(o.workload); ok {
		return []workload{w}
	}
	return workloads
}

// runAll runs every workload once, each in its own process.
func runAll(o options, stdout, stderr io.Writer) int {
	results := map[string]*jsonResult{}
	status := 0
	for _, w := range workloads {
		res, err := child(o, w.name, o.seed, o.trace, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "lodimbench:", err)
			return 2
		}
		if !res.Correct {
			status = 1
		}
		results[w.name] = res
	}
	fmt.Fprintf(stderr, "lodimbench: all workloads, seed %d\n", o.seed)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(stderr, "  %-42s", "metric")
	for _, w := range workloads {
		fmt.Fprintf(stderr, " %14s", w.name)
	}
	fmt.Fprintln(stderr)
	for _, d := range defs {
		fmt.Fprintf(stderr, "  %-42s", d.name+" ("+d.unit+")")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %14.6g", results[w.name].Metrics[d.name].Value)
		}
		fmt.Fprintln(stderr)
	}
	line, _ := json.Marshal(results)
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}

// stability summarises one metric over repeated runs.
type stability struct {
	Unit   string    `json:"unit"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// IQRShare is (Q3 − Q1) / median; RangeShare is (max − min) / median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
}

type repeatReport struct {
	Seconds   float64                          `json:"seconds"`
	Seeds     []int64                          `json:"seeds"`
	Workloads map[string]map[string]*stability `json:"workloads"`
}

// runRepeat runs each selected workload o.repeat times, seed after seed,
// and reports the spread of every end-to-end metric. A metric whose
// quartile spread exceeds a third of its bound is flagged as unsteady.
func runRepeat(o options, stdout, stderr io.Writer) int {
	rep := repeatReport{Seconds: scaleOf(o).timed.Seconds(), Workloads: map[string]map[string]*stability{}}
	for r := 0; r < o.repeat; r++ {
		rep.Seeds = append(rep.Seeds, o.seed+int64(r))
	}
	status := 0
	for _, w := range selected(o) {
		stats := map[string]*stability{}
		for _, d := range endToEnd {
			stats[d.name] = &stability{Unit: d.unit, Bound: d.bound}
		}
		for _, seed := range rep.Seeds {
			res, err := child(o, w.name, seed, false, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "lodimbench:", err)
				return 2
			}
			if !res.Correct || res.Failed > 0 {
				status = 1
			}
			for _, d := range endToEnd {
				stats[d.name].Values = append(stats[d.name].Values, res.Metrics[d.name].Value)
			}
		}
		fmt.Fprintf(stderr, "lodimbench: %s over seeds %v\n", w.name, rep.Seeds)
		for _, d := range endToEnd {
			s := stats[d.name]
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range s.Values {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			s.IQRShare, s.RangeShare = ratio(s.Q3-s.Q1, s.Median), ratio(hi-lo, s.Median)
			flag := ""
			if d.name != "setup_s" && s.IQRShare > d.bound/3 {
				flag = "  unsteady: quartile spread above a third of the bound"
			}
			fmt.Fprintf(stderr, "  %-16s median %12.6g %-6s q1 %12.6g q3 %12.6g iqr %6.2f%% range %6.2f%% bound %4.0f%%%s\n",
				d.name, s.Median, d.unit, s.Q1, s.Q3, 100*s.IQRShare, 100*s.RangeShare, 100*d.bound, flag)
		}
		rep.Workloads[w.name] = stats
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Fprintf(stdout, "%s\n", out)
	return status
}
