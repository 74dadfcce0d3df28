package main

import (
	"math"
	"sort"
)

// median returns the median of xs, or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does with its default
// exclusive method, so the benchmark's own spread figures agree with the
// ones a check computes from its printed results. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
