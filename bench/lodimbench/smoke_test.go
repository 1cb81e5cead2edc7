package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the reference process, which
// newBench starts as a copy of the running executable.
func TestMain(m *testing.M) {
	if runReference() {
		return
	}
	os.Exit(m.Run())
}

// benchmarkFile holds the fields of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestDeclaredMetrics keeps BENCHMARK.json and the code's metric and
// workload tables in step.
func TestDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, lodimbench measures %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, lodimbench runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: file %q (why %q), code %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: file %+v, code %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload on the smoke subset, plain and traced
// (half a second of measurement each), and checks that each metric BENCHMARK.json declares
// is emitted with a finite value and that no answer was wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	bf := readBenchmarkFile(t)
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 1, trace: trace, smoke: true, manifest: manifestPath, workdir: t.TempDir()}
			b, err := newBench(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.run(w)
			b.close()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.wrong != 0 || res.failed != 0 || res.attempt == 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed, %d wrong: %v", w.name, trace, res.attempt, res.failed, res.wrong, res.problems)
			}
			var declared []string
			if !trace {
				for _, m := range bf.EndToEnd {
					declared = append(declared, m.Name)
				}
			} else {
				for _, m := range bf.PerLayer {
					declared = append(declared, m.Name)
				}
			}
			for _, name := range declared {
				v, ok := res.values[name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s = %v (emitted %v)", w.name, trace, name, v, ok)
				}
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}
