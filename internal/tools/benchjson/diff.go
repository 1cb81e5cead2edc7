package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDelta is the before/after pair for one metric of one benchmark.
// Pct is the relative change (new-old)/old; +Inf when old was zero and
// new is not. Regressed applies the higher-is-worse rule against the
// caller's threshold.
type metricDelta struct {
	Unit      string
	Old, New  float64
	Pct       float64
	Regressed bool
}

// benchDiff is the comparison of one benchmark across two reports.
// OnlyOld/OnlyNew flag benchmarks present in a single report (renamed,
// added or removed) — reported but never counted as regressions.
type benchDiff struct {
	Pkg, Name string
	Metrics   []metricDelta
	OnlyOld   bool
	OnlyNew   bool
}

func (d *benchDiff) regressed() bool {
	for _, m := range d.Metrics {
		if m.Regressed {
			return true
		}
	}
	return false
}

func key(b Benchmark) string { return b.Pkg + "\x00" + b.Name }

// deltaOf compares one metric. All benchmark metrics here (ns/op, B/op,
// allocs/op) are higher-is-worse, so a regression is new exceeding old
// by more than threshold (relative).
func deltaOf(unit string, old, new float64, threshold float64) metricDelta {
	d := metricDelta{Unit: unit, Old: old, New: new}
	switch {
	case old == 0 && new == 0:
		d.Pct = 0
	case old == 0:
		d.Pct = math.Inf(1)
		d.Regressed = true
	default:
		d.Pct = (new - old) / old
		d.Regressed = d.Pct > threshold
	}
	return d
}

// diffReports matches benchmarks by (pkg, name) and computes per-metric
// deltas. Metrics absent from either side (e.g. a run without -benchmem
// reports no B/op) are skipped rather than treated as zero.
func diffReports(oldRep, newRep *Report, threshold float64) []benchDiff {
	olds := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		olds[key(b)] = b
	}
	var out []benchDiff
	seen := make(map[string]bool, len(newRep.Benchmarks))
	for _, nb := range newRep.Benchmarks {
		seen[key(nb)] = true
		ob, ok := olds[key(nb)]
		if !ok {
			out = append(out, benchDiff{Pkg: nb.Pkg, Name: nb.Name, OnlyNew: true})
			continue
		}
		d := benchDiff{Pkg: nb.Pkg, Name: nb.Name}
		d.Metrics = append(d.Metrics, deltaOf("ns/op", ob.NsPerOp, nb.NsPerOp, threshold))
		if ob.BytesPerOp != 0 || nb.BytesPerOp != 0 {
			d.Metrics = append(d.Metrics, deltaOf("B/op", float64(ob.BytesPerOp), float64(nb.BytesPerOp), threshold))
		}
		if ob.AllocsPerOp != 0 || nb.AllocsPerOp != 0 {
			d.Metrics = append(d.Metrics, deltaOf("allocs/op", float64(ob.AllocsPerOp), float64(nb.AllocsPerOp), threshold))
		}
		out = append(out, d)
	}
	for _, ob := range oldRep.Benchmarks {
		if !seen[key(ob)] {
			out = append(out, benchDiff{Pkg: ob.Pkg, Name: ob.Name, OnlyOld: true})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func fmtPct(p float64) string {
	if math.IsInf(p, 1) {
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", p*100)
}

func fmtVal(v float64) string { return fmt.Sprintf("%.0f", v) }

// writeDiff renders the comparison and returns the number of regressed
// benchmarks.
func writeDiff(w io.Writer, diffs []benchDiff, threshold float64) int {
	regressions := 0
	for _, d := range diffs {
		name := d.Pkg + " " + d.Name
		switch {
		case d.OnlyOld:
			fmt.Fprintf(w, "%-72s removed (only in OLD)\n", name)
			continue
		case d.OnlyNew:
			fmt.Fprintf(w, "%-72s added (only in NEW)\n", name)
			continue
		}
		line := fmt.Sprintf("%-72s", name)
		for _, m := range d.Metrics {
			cell := fmt.Sprintf("%s %s→%s (%s)", m.Unit, fmtVal(m.Old), fmtVal(m.New), fmtPct(m.Pct))
			if m.Regressed {
				cell += " REGRESSED"
			}
			line += "  " + cell
		}
		fmt.Fprintln(w, line)
		if d.regressed() {
			regressions++
		}
	}
	fmt.Fprintf(w, "\n%d benchmarks compared, %d regressed (threshold %+.0f%%)\n",
		len(diffs), regressions, threshold*100)
	return regressions
}

func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep := &Report{}
	if err := json.NewDecoder(f).Decode(rep); err != nil {
		return nil, fmt.Errorf("benchjson: parse %s: %w", path, err)
	}
	return rep, nil
}

// missingRequired returns the names in required that do not name a
// benchmark of both reports.
func missingRequired(oldRep, newRep *Report, required []string) []string {
	has := func(rep *Report, name string) bool {
		for _, b := range rep.Benchmarks {
			if b.Name == name {
				return true
			}
		}
		return false
	}
	var missing []string
	for _, name := range required {
		if !has(oldRep, name) || !has(newRep, name) {
			missing = append(missing, name)
		}
	}
	return missing
}

// runDiff implements `benchjson -diff OLD NEW`: exit status 1 when any
// benchmark regressed beyond the threshold and -fail was given, or when
// a benchmark named in required is missing from either report; 2 on
// usage/IO errors.
func runDiff(oldPath, newPath string, threshold float64, failOnRegression bool, required []string) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	regressions := writeDiff(os.Stdout, diffReports(oldRep, newRep, threshold), threshold)
	missing := missingRequired(oldRep, newRep, required)
	for _, name := range missing {
		fmt.Fprintf(os.Stdout, "%s MISSING: required in both reports\n", name)
	}
	if len(missing) > 0 || (regressions > 0 && failOnRegression) {
		return 1
	}
	return 0
}
