package main

import (
	"math"
	"strings"
	"testing"
)

func rep(bs ...Benchmark) *Report { return &Report{Benchmarks: bs} }

func TestDiffReportsDeltasAndRegressions(t *testing.T) {
	oldRep := rep(
		Benchmark{Pkg: "p", Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 800, AllocsPerOp: 40},
		Benchmark{Pkg: "p", Name: "BenchmarkB", NsPerOp: 500},
		Benchmark{Pkg: "p", Name: "BenchmarkGone", NsPerOp: 1},
	)
	newRep := rep(
		Benchmark{Pkg: "p", Name: "BenchmarkA", NsPerOp: 900, BytesPerOp: 80, AllocsPerOp: 4},
		Benchmark{Pkg: "p", Name: "BenchmarkB", NsPerOp: 600}, // +20% — regressed at 10%
		Benchmark{Pkg: "p", Name: "BenchmarkNew", NsPerOp: 2},
	)
	diffs := diffReports(oldRep, newRep, 0.10)
	if len(diffs) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(diffs), diffs)
	}
	byName := map[string]benchDiff{}
	for _, d := range diffs {
		byName[d.Name] = d
	}
	a := byName["BenchmarkA"]
	if a.regressed() {
		t.Errorf("A (all improved) flagged regressed: %+v", a)
	}
	if len(a.Metrics) != 3 || a.Metrics[0].Unit != "ns/op" || a.Metrics[0].Pct >= 0 {
		t.Errorf("A metrics: %+v", a.Metrics)
	}
	if got := a.Metrics[2]; got.Unit != "allocs/op" || math.Abs(got.Pct-(-0.9)) > 1e-9 {
		t.Errorf("A allocs delta: %+v", got)
	}
	b := byName["BenchmarkB"]
	if !b.regressed() {
		t.Errorf("B (+20%% ns/op) not flagged at threshold 10%%: %+v", b)
	}
	if len(b.Metrics) != 1 {
		t.Errorf("B should only compare ns/op (no -benchmem data): %+v", b.Metrics)
	}
	if !byName["BenchmarkGone"].OnlyOld || !byName["BenchmarkNew"].OnlyNew {
		t.Errorf("presence flags: %+v %+v", byName["BenchmarkGone"], byName["BenchmarkNew"])
	}

	// The same pair at a looser threshold has no regressions.
	for _, d := range diffReports(oldRep, newRep, 0.25) {
		if d.regressed() {
			t.Errorf("threshold 25%%: %s still regressed", d.Name)
		}
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	oldRep := rep(Benchmark{Pkg: "p", Name: "BenchmarkZ", NsPerOp: 10, AllocsPerOp: 0, BytesPerOp: 0})
	newRep := rep(Benchmark{Pkg: "p", Name: "BenchmarkZ", NsPerOp: 10, AllocsPerOp: 3, BytesPerOp: 64})
	diffs := diffReports(oldRep, newRep, 0.10)
	if len(diffs) != 1 || !diffs[0].regressed() {
		t.Fatalf("0→3 allocs must regress: %+v", diffs)
	}
	for _, m := range diffs[0].Metrics {
		if m.Unit != "ns/op" && !math.IsInf(m.Pct, 1) {
			t.Errorf("zero baseline pct should be +inf: %+v", m)
		}
	}
}

func TestWriteDiffOutput(t *testing.T) {
	oldRep := rep(Benchmark{Pkg: "p", Name: "BenchmarkB", NsPerOp: 500})
	newRep := rep(Benchmark{Pkg: "p", Name: "BenchmarkB", NsPerOp: 600})
	var sb strings.Builder
	n := writeDiff(&sb, diffReports(oldRep, newRep, 0.10), 0.10)
	if n != 1 {
		t.Fatalf("regression count = %d, want 1", n)
	}
	out := sb.String()
	for _, want := range []string{"BenchmarkB", "ns/op 500→600", "+20.0%", "REGRESSED", "1 benchmarks compared, 1 regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMissingRequired(t *testing.T) {
	oldRep := rep(Benchmark{Pkg: "p", Name: "BenchmarkA"}, Benchmark{Pkg: "p", Name: "BenchmarkOld"})
	newRep := rep(Benchmark{Pkg: "p", Name: "BenchmarkA"}, Benchmark{Pkg: "p", Name: "BenchmarkNew"})
	got := missingRequired(oldRep, newRep, []string{"BenchmarkA", "BenchmarkOld", "BenchmarkNew", "BenchmarkNone"})
	if want := []string{"BenchmarkOld", "BenchmarkNew", "BenchmarkNone"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("missing = %v, want %v", got, want)
	}
}

func TestDeclaredUnitChanges(t *testing.T) {
	decl, err := parseDeclared("BenchmarkA:sched,levels BenchmarkB:pruned")
	if err != nil {
		t.Fatal(err)
	}
	oldRep := rep(
		Benchmark{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100, Custom: map[string]float64{"sched": 10, "levels": 3, "pruned": 1}},
		Benchmark{Pkg: "p", Name: "BenchmarkB", NsPerOp: 100, Custom: map[string]float64{"pruned": 4}},
	)
	newRep := rep(
		Benchmark{Pkg: "p", Name: "BenchmarkA", NsPerOp: 101, Custom: map[string]float64{"sched": 5, "levels": 3, "pruned": 2}},
		Benchmark{Pkg: "p", Name: "BenchmarkB", NsPerOp: 103, Custom: map[string]float64{"pruned": 7}},
	)
	diffs := diffReports(oldRep, newRep, 0.02)
	decl.apply(diffs)
	byName := map[string]benchDiff{}
	for _, d := range diffs {
		byName[d.Name] = d
	}
	units := func(name string) map[string]metricDelta {
		out := map[string]metricDelta{}
		for _, m := range byName[name].Metrics {
			out[m.Unit] = m
		}
		return out
	}
	// A: the declared sched change passes, the undeclared pruned change
	// still regresses, and the unchanged declared levels is plain.
	a := units("BenchmarkA")
	if m := a["sched"]; m.Regressed || !m.Declared {
		t.Errorf("declared sched: %+v", m)
	}
	if m := a["pruned"]; !m.Regressed || m.Declared {
		t.Errorf("undeclared pruned: %+v", m)
	}
	if m := a["levels"]; m.Regressed || m.Declared {
		t.Errorf("unchanged levels: %+v", m)
	}
	// B: the declared unit passes, but ns/op +3% still fails at 2%.
	b := units("BenchmarkB")
	if m := b["pruned"]; m.Regressed || !m.Declared {
		t.Errorf("declared pruned: %+v", m)
	}
	if m := b["ns/op"]; !m.Regressed {
		t.Errorf("ns/op +3%% at 2%%: %+v", m)
	}
	var sb strings.Builder
	if n := writeDiff(&sb, diffs, 0.02); n != 2 {
		t.Errorf("regressions = %d, want 2 (A's pruned, B's ns/op)", n)
	}
	if out := sb.String(); !strings.Contains(out, "sched 10→5 (-50.0%) DECLARED") {
		t.Errorf("output lacks the declared change:\n%s", out)
	}

	for _, bad := range []string{"sched", "BenchmarkA:", "BenchmarkA:ns/op", ":sched"} {
		if _, err := parseDeclared(bad); err == nil {
			t.Errorf("parseDeclared(%q) accepted", bad)
		}
	}
	if d, err := parseDeclared("BenchmarkA:sched,BenchmarkB:pruned"); err != nil || !d["BenchmarkA"]["sched"] || !d["BenchmarkB"]["pruned"] || d["BenchmarkA"]["pruned"] {
		t.Errorf("comma-separated entries: %v, %v", d, err)
	}
}
