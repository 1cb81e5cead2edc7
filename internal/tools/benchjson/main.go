// Command benchjson converts `go test -bench` text output (stdin) into
// a stable JSON document (stdout), so benchmark runs can be diffed and
// compared against a committed baseline:
//
//	go test -run '^$' -bench=. -benchmem ./... | go run ./internal/tools/benchjson
//
// Output is sorted by (package, benchmark name), making the document
// independent of package scheduling order.
//
// With -diff it instead compares two previously captured documents:
//
//	go run ./internal/tools/benchjson -diff BENCH_baseline.json BENCH_pr6.json
//
// printing per-benchmark ns/op, B/op and allocs/op deltas and marking
// any metric that worsened by more than -threshold (default 10%) as
// REGRESSED. Custom units a benchmark reports through b.ReportMetric
// (work counts such as "candidates" or "pruned") are deterministic, so
// any change in one is REGRESSED, whatever the threshold and even when
// ns/op improved. With -fail, one or more regressions make the exit status
// nonzero, so the comparison can gate CI. -require lists benchmark
// names (space-separated) that must appear in both documents; a missing
// one also makes the exit status nonzero, so a guard cannot pass on a
// benchmark that failed to run or was renamed. -declare names the
// custom units a change means to move, as NAME:unit entries ('NAME:a,b'
// declares two units of NAME): their changes are printed as DECLARED
// and do not fail the comparison.
//
// Repeated rows of one benchmark (a -count N run, or several rounds
// appended to one input) collapse into one row holding each metric's
// best (lowest) value, so a best-of-N capture compares as one row.
// Custom units, which should not differ between rounds, keep their
// lowest value too.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// Custom holds the b.ReportMetric units, keyed by unit. Reports
	// written before it existed load with it nil.
	Custom map[string]float64 `json:"custom,omitempty"`
}

// Report is the whole document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse consumes `go test -bench` output. Header lines (goos/goarch/
// pkg/cpu) set the context for subsequent Benchmark lines; everything
// else (PASS, ok, test logs) is ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		a, b := rep.Benchmarks[i], rep.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	bestOf(rep)
	return rep, nil
}

// parseLine parses one "BenchmarkName-P  N  x ns/op  [y B/op  z allocs/op]"
// line. ok=false skips non-result lines that merely start with
// "Benchmark" (e.g. a benchmark's own log output).
func parseLine(line string) (Benchmark, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: f[0], Procs: 1}
	if i := strings.LastIndexByte(f[0], '-'); i > 0 {
		if p, err := strconv.Atoi(f[0][i+1:]); err == nil {
			b.Name, b.Procs = f[0][:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b.Iterations = iters
	// The rest is (value, unit) pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("benchjson: bad value %q in %q", f[i], line)
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "MB/s":
			b.MBPerSec = v
		default:
			if b.Custom == nil {
				b.Custom = map[string]float64{}
			}
			b.Custom[f[i+1]] = v
		}
	}
	return b, true, nil
}

func main() {
	diff := flag.Bool("diff", false, "compare two captured JSON reports: benchjson -diff OLD NEW")
	threshold := flag.Float64("threshold", 0.10, "relative worsening beyond which a metric is REGRESSED")
	fail := flag.Bool("fail", false, "with -diff: exit nonzero when any benchmark regressed")
	require := flag.String("require", "", "with -diff: space-separated benchmark names that must appear in both reports")
	declare := flag.String("declare", "", "with -diff: NAME:unit[,unit] entries whose custom units may change")
	flag.Parse()
	if *diff {
		decl, err := parseDeclared(*declare)
		if err != nil || flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff [-threshold 0.10] [-fail] [-require 'NAME ...'] [-declare 'NAME:unit,...'] OLD.json NEW.json")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *threshold, *fail, strings.Fields(*require), decl))
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// bestOf collapses each run of rows sharing (package, name) — adjacent
// after the sort — into one row with the lowest ns/op, B/op and
// allocs/op among them, and the iteration count of its fastest run.
func bestOf(rep *Report) {
	out := rep.Benchmarks[:0]
	for _, b := range rep.Benchmarks {
		if n := len(out); n > 0 && key(out[n-1]) == key(b) {
			top := &out[n-1]
			if b.NsPerOp < top.NsPerOp {
				top.NsPerOp, top.Iterations = b.NsPerOp, b.Iterations
			}
			top.BytesPerOp = min(top.BytesPerOp, b.BytesPerOp)
			top.AllocsPerOp = min(top.AllocsPerOp, b.AllocsPerOp)
			top.MBPerSec = max(top.MBPerSec, b.MBPerSec)
			for unit, v := range b.Custom {
				if old, ok := top.Custom[unit]; !ok || v < old {
					if top.Custom == nil {
						top.Custom = map[string]float64{}
					}
					top.Custom[unit] = v
				}
			}
			continue
		}
		out = append(out, b)
	}
	rep.Benchmarks = out
}
