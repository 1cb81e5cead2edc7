package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: lodim/internal/schedule
cpu: Example CPU @ 2.00GHz
BenchmarkFindOptimal-8   	     120	   9876543 ns/op	  4096 B/op	      12 allocs/op
BenchmarkJoint-8         	      10	 123456789 ns/op
PASS
ok  	lodim/internal/schedule	2.345s
pkg: lodim/internal/conflict
BenchmarkDecide-8        	   50000	     25000 ns/op	     0 B/op	       0 allocs/op
Benchmark log line that is not a result
PASS
ok  	lodim/internal/conflict	1.2s
`

func TestParseSample(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Example CPU @ 2.00GHz" {
		t.Errorf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	// Sorted by (pkg, name): conflict first.
	b := rep.Benchmarks[0]
	if b.Pkg != "lodim/internal/conflict" || b.Name != "BenchmarkDecide" || b.Procs != 8 {
		t.Errorf("first benchmark: %+v", b)
	}
	if b.Iterations != 50000 || b.NsPerOp != 25000 {
		t.Errorf("metrics: %+v", b)
	}
	fo := rep.Benchmarks[1]
	if fo.Name != "BenchmarkFindOptimal" || fo.BytesPerOp != 4096 || fo.AllocsPerOp != 12 {
		t.Errorf("FindOptimal metrics: %+v", fo)
	}
	if rep.Benchmarks[2].Name != "BenchmarkJoint" || rep.Benchmarks[2].BytesPerOp != 0 {
		t.Errorf("Joint (no -benchmem fields): %+v", rep.Benchmarks[2])
	}
}

func TestParseSubBenchmarkAndFractionalNs(t *testing.T) {
	in := "pkg: p\nBenchmarkX/case=3-16 \t 1000000000 \t 0.25 ns/op\n"
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkX/case=3" || b.Procs != 16 || b.NsPerOp != 0.25 {
		t.Errorf("got %+v", b)
	}
}

func TestParseRejectsCorruptValue(t *testing.T) {
	in := "BenchmarkBad-4 \t 10 \t notanumber ns/op\n"
	if _, err := parse(strings.NewReader(in)); err == nil {
		t.Error("corrupt value accepted")
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks == nil || len(rep.Benchmarks) != 0 {
		t.Errorf("want empty non-nil slice, got %#v", rep.Benchmarks)
	}
}

// TestBestOf: parsing collapses repeated rows of one benchmark into one
// row with each metric's best value; other rows pass through untouched.
func TestBestOf(t *testing.T) {
	rounds := `pkg: lodim
BenchmarkJoint-2   	     10	   2000 ns/op	  512 B/op	      9 allocs/op
BenchmarkOther-2   	      5	   7000 ns/op	  100 B/op	      1 allocs/op
BenchmarkJoint-2   	     12	   1500 ns/op	  640 B/op	      8 allocs/op
BenchmarkJoint-2   	     11	   1800 ns/op	  480 B/op	     10 allocs/op
`
	rep, err := parse(strings.NewReader(rounds))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	j := rep.Benchmarks[0]
	if j.Name != "BenchmarkJoint" || j.NsPerOp != 1500 || j.Iterations != 12 || j.BytesPerOp != 480 || j.AllocsPerOp != 8 {
		t.Errorf("best Joint row: %+v", j)
	}
	if o := rep.Benchmarks[1]; o.Name != "BenchmarkOther" || o.NsPerOp != 7000 || o.BytesPerOp != 100 {
		t.Errorf("Other row: %+v", o)
	}
}

// TestParseCustomUnits: b.ReportMetric units land in Custom and survive
// the best-of collapse; rows without them carry none.
func TestParseCustomUnits(t *testing.T) {
	in := `pkg: lodim
BenchmarkJointMapping/matmul/workers=1-2   	  10	   2000 ns/op	        13.00 candidates	         4.000 pruned	  512 B/op	  9 allocs/op
BenchmarkPlain-2   	  5	   7000 ns/op
BenchmarkJointMapping/matmul/workers=1-2   	  12	   1500 ns/op	        13.00 candidates	         4.000 pruned	  640 B/op	  8 allocs/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	j := rep.Benchmarks[0]
	if j.NsPerOp != 1500 || j.BytesPerOp != 512 || j.AllocsPerOp != 8 {
		t.Errorf("standard units: %+v", j)
	}
	if len(j.Custom) != 2 || j.Custom["candidates"] != 13 || j.Custom["pruned"] != 4 {
		t.Errorf("custom units: %+v", j.Custom)
	}
	if p := rep.Benchmarks[1]; p.Custom != nil {
		t.Errorf("plain row grew custom units: %+v", p.Custom)
	}
}

// TestOldReportLoads: a report written before custom units existed
// still loads, and compares without custom deltas.
func TestOldReportLoads(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"benchmarks":[{"pkg":"p","name":"BenchmarkA","procs":2,"iterations":10,"ns_per_op":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := loadReport(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Custom != nil {
		t.Fatalf("old report: %+v", rep.Benchmarks)
	}
	newRep := &Report{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100, Custom: map[string]float64{"candidates": 7}}}}
	d := diffReports(rep, newRep, 0.02)
	if len(d) != 1 || len(d[0].Metrics) != 1 || d[0].regressed() {
		t.Errorf("a unit only one side reports must be skipped: %+v", d)
	}
}

// TestCustomUnitChangeRegresses: any change in a custom unit is
// REGRESSED even when ns/op improved, and -fail turns it into exit 1;
// an unchanged custom unit is not.
func TestCustomUnitChangeRegresses(t *testing.T) {
	row := func(ns float64, candidates, pruned float64) Benchmark {
		return Benchmark{Pkg: "p", Name: "BenchmarkJoint", NsPerOp: ns, Custom: map[string]float64{"candidates": candidates, "pruned": pruned}}
	}
	oldRep := &Report{Benchmarks: []Benchmark{row(1000, 13, 4)}}
	for _, c := range []struct {
		name string
		new  Benchmark
		want bool
	}{
		{"same work, faster", row(500, 13, 4), false},
		{"more candidates, faster", row(500, 14, 4), true},
		{"fewer pruned, faster", row(500, 13, 3), true},
		{"fewer candidates", row(1000, 12, 4), true},
	} {
		newRep := &Report{Benchmarks: []Benchmark{c.new}}
		d := diffReports(oldRep, newRep, 0.02)
		if len(d) != 1 || d[0].regressed() != c.want {
			t.Errorf("%s: regressed = %v, want %v: %+v", c.name, d[0].regressed(), c.want, d[0].Metrics)
		}
		var sb strings.Builder
		writeDiff(&sb, d, 0.02)
		if !strings.Contains(sb.String(), "candidates 13→") {
			t.Errorf("%s: diff output lacks the candidates cell:\n%s", c.name, sb.String())
		}

		dir := t.TempDir()
		oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
		for path, r := range map[string]*Report{oldPath: oldRep, newPath: newRep} {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantExit := 0
		if c.want {
			wantExit = 1
		}
		if got := runDiff(oldPath, newPath, 0.02, true, nil, nil); got != wantExit {
			t.Errorf("%s: -fail exit = %d, want %d", c.name, got, wantExit)
		}
	}
}
