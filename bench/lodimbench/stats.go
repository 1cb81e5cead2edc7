package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of ascending-sorted
// values by the nearest-rank rule: the smallest value with at least
// q·n values at or below it. It returns 0 for no values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// quartiles returns the first quartile, the median and the third
// quartile of values, computed exactly as Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so the stability report agrees with external checks run on
// the same numbers. One value is its own three quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, ld-1))
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile.
func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// mean returns the arithmetic mean, 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio divides, answering 0 when nothing was counted, so every metric
// stays finite on workloads that never exercise a layer.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
