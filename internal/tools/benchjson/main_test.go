package main

import (
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
