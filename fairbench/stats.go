package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" definition: q=0 is the minimum, q=1 the
// maximum). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1 and Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), which is
// how the steadiness of a metric across runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python: j = i*m//4 clamped to [1, n-1]; delta = i*m - 4j, taken
		// after the clamp, so it may extrapolate past the neighbours.
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// durationsMS converts per-request latencies in seconds to milliseconds.
func durationsMS(secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = s * 1e3
	}
	return out
}
