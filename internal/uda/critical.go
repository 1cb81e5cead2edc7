package uda

import (
	"fmt"
	"slices"
)

// This file computes dataflow-limit quantities of an algorithm: the
// free (ASAP) schedule and the critical path. They bound what any
// linear schedule — indeed any schedule at all with unit-time
// computations — can achieve: t ≥ CriticalPath(algo), making them the
// natural baseline column next to the achieved linear-schedule times in
// the experiment tables.

// freeLevels returns the earliest firing time of every index point
// under pure dataflow execution (unbounded processors): level(j̄) =
// 1 + max over in-set predecessors, with sources at level 1. Levels are
// indexed by the point's mixed-radix offset in the box, Σ_i j_i·stride_i
// with the last coordinate fastest — the order of IndexSet.Each. Points
// are settled in topological order of the dependence graph (Kahn's
// algorithm), which reaches every point unless the graph has a cycle.
// Use only on enumerable index sets.
func (a *Algorithm) freeLevels() ([]int64, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	n, m, upper := a.Dim(), a.NumDeps(), a.Set.Upper
	size := a.Set.Size()
	stride := make([]int64, n)
	for i, s := n-1, int64(1); i >= 0; i-- {
		stride[i], s = s, s*(upper[i]+1)
	}
	// step[c] is the offset change along dependence c; d[c*n+i] = d_ic.
	step, d := make([]int64, m), make([]int64, m*n)
	for c := range m {
		for i := range n {
			d[c*n+i] = a.D.At(i, c)
			step[c] += d[c*n+i] * stride[i]
		}
	}
	j := make([]int64, n)
	decode := func(off int64) {
		for i := range n {
			j[i] = off / stride[i] % (upper[i] + 1)
		}
	}
	// shifted reports whether j + sign·d̄_c lies in the box.
	shifted := func(c int, sign int64) bool {
		for i, x := range d[c*n : (c+1)*n] {
			if y := j[i] + sign*x; y < 0 || y > upper[i] {
				return false
			}
		}
		return true
	}
	indeg := make([]int32, size)
	level := make([]int64, size)
	queue := make([]int64, 0, size)
	for off := range size {
		decode(off)
		for c := range m {
			if shifted(c, -1) {
				indeg[off]++
			}
		}
		if indeg[off] == 0 {
			level[off] = 1
			queue = append(queue, off)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		decode(u)
		for c := range m {
			if !shifted(c, 1) {
				continue
			}
			v := u + step[c]
			level[v] = max(level[v], level[u]+1)
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if int64(len(queue)) < size {
		return nil, fmt.Errorf("uda: %s: free schedule did not converge — the dependence graph has a cycle", a.Name)
	}
	return level, nil
}

// CriticalPath returns the length of the longest dependence chain in
// the algorithm — the minimum possible total execution time with
// unit-time computations, achieved by the free schedule on unboundedly
// many processors. Any valid linear schedule satisfies
// TotalTime(Π) ≥ CriticalPath.
func (a *Algorithm) CriticalPath() (int64, error) {
	levels, err := a.freeLevels()
	if err != nil {
		return 0, err
	}
	return slices.Max(levels), nil
}
