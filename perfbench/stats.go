package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1) and
// how many samples lie strictly above it. xs must be sorted.
func percentile(xs []float64, q float64) (value float64, above int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	value = xs[i]
	above = len(xs) - sort.Search(len(xs), func(k int) bool { return xs[k] > value })
	return value, above
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minTail is how many samples must lie beyond a reported percentile for
// it to be measured rather than extrapolated.
const minTail = 10

// tailProblem reports whether the q-quantile of the sorted samples xs
// has fewer than minTail samples beyond it.
func tailProblem(xs []float64, q float64) error {
	if _, above := percentile(xs, q); above < minTail {
		return fmt.Errorf("p%g latency: only %d of %d samples lie above it (need %d)", 100*q, above, len(xs), minTail)
	}
	return nil
}
