// Package stats provides the small statistical toolkit the experiment
// harness uses to aggregate metrics over repeated simulation runs: mean,
// standard deviation, min/max, and normal-approximation confidence
// intervals. Every plotted point in the paper is "the average of the
// metric measured over 100 runs"; Summary is that average plus spread.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval of the mean (1.96 * stderr). Zero for samples of size < 2.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Stddev / math.Sqrt(float64(s.N))
}

// String implements fmt.Stringer with a compact mean±ci rendering.
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ±%.3f (n=%d, min=%.3f, max=%.3f)",
		s.Mean, s.CI95(), s.N, s.Min, s.Max)
}

// Accumulator aggregates observations incrementally (Welford's online
// algorithm), avoiding a second pass and catastrophic cancellation.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Summary snapshots the accumulated statistics.
func (a *Accumulator) Summary() Summary {
	s := Summary{N: a.n, Mean: a.mean, Min: a.min, Max: a.max}
	if a.n > 1 {
		s.Stddev = math.Sqrt(a.m2 / float64(a.n-1))
	}
	return s
}
