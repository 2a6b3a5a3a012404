package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-th quantile (0 < q < 1) of sorted by the
// nearest-rank rule, with the sample count. It refuses when fewer than
// minBeyond samples lie above the chosen rank, so a p99 is never read
// off a handful of samples.
func percentile(sorted []float64, q float64) (v float64, n int, err error) {
	n = len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, n, fmt.Errorf("percentile %.4g of %d samples: out of range", q, n)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("percentile %.4g of %d samples: only %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	return sorted[rank], n, nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}
