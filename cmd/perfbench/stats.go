package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: with fewer, the percentile is one or two outliers and does
// not repeat from run to run.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of xs by the
// nearest-rank rule, refusing when fewer than minBeyond samples would lie
// beyond it. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples leaves %d beyond it, want >= %d",
			100*p, n, beyond, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the median of xs (the mean of the middle pair for even
// lengths), sorting a copy; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// entered).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// splitmix64 is the finalizer used to derive per-workload seed lists.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// seedStream returns the workload's stream of network seeds: a pure
// function of the workload seed and the workload name, so the same --seed
// reproduces the same inputs and different workloads never share a
// network. Callers draw replacements from the same stream for seeds whose
// placement the paper's tree limits cannot cover.
func seedStream(seed uint64, workload string) func() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	z := splitmix64(seed ^ h)
	return func() uint64 {
		z = splitmix64(z)
		return z>>1 | 1 // positive and non-zero
	}
}
