package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// Summarize computes a Summary of xs in two passes: the batch oracle
// the Accumulator is checked against. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almost(s.Stddev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev = %g", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.CI95() != 0 {
		t.Fatalf("empty = %+v", s)
	}
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Stddev != 0 || s.CI95() != 0 {
		t.Fatalf("single = %+v", s)
	}
	if s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("single min/max = %+v", s)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := xrand.New(1)
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = rng.Float64()
	}
	for i := range large {
		large[i] = rng.Float64()
	}
	if Summarize(small).CI95() <= Summarize(large).CI95() {
		t.Fatal("CI did not shrink with sample size")
	}
}

// TestAccumulatorMatchesBatch: Welford's online results equal the batch
// computation on random samples.
func TestAccumulatorMatchesBatch(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		var acc Accumulator
		for i := range xs {
			xs[i] = rng.Uniform(-100, 100)
			acc.Add(xs[i])
		}
		batch := Summarize(xs)
		online := acc.Summary()
		return online.N == batch.N &&
			almost(online.Mean, batch.Mean, 1e-9) &&
			almost(online.Stddev, batch.Stddev, 1e-9) &&
			online.Min == batch.Min && online.Max == batch.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	s := acc.Summary()
	if s.N != 0 || s.Mean != 0 || s.Stddev != 0 {
		t.Fatalf("empty accumulator = %+v", s)
	}
	if acc.N() != 0 {
		t.Fatal("N")
	}
}

func TestStringRendering(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	if !strings.Contains(str, "2.000") || !strings.Contains(str, "n=3") {
		t.Fatalf("String = %q", str)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }
