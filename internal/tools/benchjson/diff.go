package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDelta is the before/after pair for one metric of one benchmark.
// Pct is the relative change (new-old)/old; +Inf when old was zero and
// new is not. Regressed applies the higher-is-worse rule against the
// caller's threshold, or, for a custom unit, marks any change that the
// caller did not declare (Declared).
type metricDelta struct {
	Unit      string
	Old, New  float64
	Pct       float64
	Regressed bool
	Declared  bool
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
// reports no B/op, a report predating custom units has none) are
// skipped rather than treated as zero.
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
		units := make([]string, 0, len(nb.Custom))
		for unit := range nb.Custom {
			if _, ok := ob.Custom[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			m := deltaOf(unit, ob.Custom[unit], nb.Custom[unit], threshold)
			m.Regressed = m.Old != m.New
			d.Metrics = append(d.Metrics, m)
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

// declared is the -declare set: benchmark name → the custom units whose
// change is intended.
type declared map[string]map[string]bool

// parseDeclared reads a -declare value: tokens separated by spaces or
// commas, each NAME:unit naming a benchmark and one of its custom
// units, or a bare unit adding to the NAME before it, so that
// 'NAME:a,b OTHER:c' declares a and b of NAME and c of OTHER. The
// standard metrics (ns/op, B/op, allocs/op) cannot be declared.
func parseDeclared(s string) (declared, error) {
	d := declared{}
	name := ""
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
		unit := tok
		if i := strings.LastIndexByte(tok, ':'); i >= 0 {
			name, unit = tok[:i], tok[i+1:]
		}
		switch {
		case name == "" || unit == "":
			return nil, fmt.Errorf("benchjson: -declare entry %q: want NAME:unit", tok)
		case unit == "ns/op" || unit == "B/op" || unit == "allocs/op":
			return nil, fmt.Errorf("benchjson: -declare entry %q: only custom units can be declared", tok)
		}
		if d[name] == nil {
			d[name] = map[string]bool{}
		}
		d[name][unit] = true
	}
	return d, nil
}

// apply turns every regression of a declared unit into a declared
// change.
func (d declared) apply(diffs []benchDiff) {
	for i := range diffs {
		for j := range diffs[i].Metrics {
			if m := &diffs[i].Metrics[j]; m.Regressed && d[diffs[i].Name][m.Unit] {
				m.Regressed, m.Declared = false, true
			}
		}
	}
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
			if m.Declared {
				cell += " DECLARED"
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
// usage/IO errors. A change of a custom unit named in decl is printed
// as DECLARED and is no regression.
func runDiff(oldPath, newPath string, threshold float64, failOnRegression bool, required []string, decl declared) int {
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
	diffs := diffReports(oldRep, newRep, threshold)
	decl.apply(diffs)
	regressions := writeDiff(os.Stdout, diffs, threshold)
	missing := missingRequired(oldRep, newRep, required)
	for _, name := range missing {
		fmt.Fprintf(os.Stdout, "%s MISSING: required in both reports\n", name)
	}
	if len(missing) > 0 || (regressions > 0 && failOnRegression) {
		return 1
	}
	return 0
}
