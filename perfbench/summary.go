package main

import (
	"fmt"
	"math"
	"sort"
)

// Samples keeps every raw observation, so percentiles are exact rather
// than bucket bounds.
type Samples struct {
	v      []float64
	sorted bool
}

// Add records one observation.
func (s *Samples) Add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// Merge appends every observation of o.
func (s *Samples) Merge(o *Samples) {
	s.v = append(s.v, o.v...)
	s.sorted = false
}

// Len is the number of observations.
func (s *Samples) Len() int { return len(s.v) }

// TrimmedSum returns how many observations are at or below the
// q-quantile and their total.
func (s *Samples) TrimmedSum(q float64) (int, float64) {
	cut := s.Quantile(q)
	n, t := 0, 0.0
	for _, x := range s.v {
		if x <= cut {
			n++
			t += x
		}
	}
	return n, t
}

// Quantile returns the nearest-rank q-quantile: the smallest observation
// with at least a fraction q of all observations at or below it. It
// returns NaN when there are no observations.
func (s *Samples) Quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(s.v)))) - 1
	rank = min(max(rank, 0), len(s.v)-1)
	return s.v[rank]
}

// Median is Quantile(0.5).
func (s *Samples) Median() float64 { return s.Quantile(0.5) }

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.5}

// TailLevel returns the highest percentile on tailLadder with at least
// ten of n observations above it, or 0 when n is too small for any.
func TailLevel(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 { // tolerate the rounding of 1-q
			return q
		}
	}
	return 0
}

// Describe renders the median and the highest well-supported tail of the
// samples, scaled by scale, with the sample count.
func (s *Samples) Describe(scale float64, unit string) string {
	n := s.Len()
	if n == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.4g %s", s.Median()*scale, unit)
	if q := TailLevel(n); q > 0.5 {
		out += fmt.Sprintf(", p%.4g %.4g %s", q*100, s.Quantile(q)*scale, unit)
	}
	return out + fmt.Sprintf(" (n=%d)", n)
}
