package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 90, 50}

// tailLevel is the highest of tailLevels that leaves at least ten of n
// samples beyond it; below 20 samples it falls back to the median.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		// The epsilon absorbs float error in 100-99.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// sample is a set of measurements of one quantity.
type sample struct {
	vals   []float64
	sorted bool
}

func (s *sample) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sample) n() int { return len(s.vals) }

func (s *sample) sort() []float64 {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return s.vals
}

func (s *sample) p(q float64) float64 { return percentile(s.sort(), q) }

func (s *sample) sum() float64 {
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t
}

// median returns the median of vals (the mean of the middle two for an
// even count), without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
