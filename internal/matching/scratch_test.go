package matching

import (
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// randomInstance builds a random bipartite instance (sizes vary per call
// so buffer reuse across differently shaped problems is exercised).
func scratchInstance(rng *xrand.RNG) (int, int, []Edge) {
	nLeft := 1 + rng.Intn(12)
	nRight := 1 + rng.Intn(12)
	var edges []Edge
	for l := 0; l < nLeft; l++ {
		for r := 0; r < nRight; r++ {
			if rng.Float64() < 0.4 {
				edges = append(edges, Edge{L: l, R: r, W: int64(1 + rng.Intn(5))})
			}
		}
	}
	// Occasional parallel edge.
	if len(edges) > 0 && rng.Float64() < 0.3 {
		e := edges[rng.Intn(len(edges))]
		e.W = int64(1 + rng.Intn(5))
		edges = append(edges, e)
	}
	return nLeft, nRight, edges
}

// TestScratchMatchesMaxWeight reuses one scratch across many random
// instances and checks every result against the allocation-per-call
// solver: identical total weight (both exact) and a valid matching.
func TestScratchMatchesMaxWeight(t *testing.T) {
	rng := xrand.New(7)
	s := NewScratch()
	for i := 0; i < 500; i++ {
		nLeft, nRight, edges := scratchInstance(rng)
		want := MaxWeight(nLeft, nRight, edges)
		got := s.MaxWeight(nLeft, nRight, edges)
		// The scratch solver must return the IDENTICAL matching, not just
		// an equal-weight one: Minim's recodings (and the dist protocols'
		// sequential parity) depend on the exact tie-breaking.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d (%dx%d, %d edges): scratch %+v, want %+v",
				i, nLeft, nRight, len(edges), got, want)
		}
		if err := got.Validate(nLeft, nRight); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		// Cross-check against the second exact solver too.
		if ssp := MaxWeightSSP(nLeft, nRight, edges); ssp.Weight != got.Weight {
			t.Fatalf("instance %d: scratch weight %d, SSP %d", i, got.Weight, ssp.Weight)
		}
	}
}

// TestMaxWeightMatrixDifferential: filling the weight matrix directly
// (WeightMatrix + MaxWeightMatrix, the Minim hot path) returns the
// IDENTICAL Result as the edge-list solvers on the same instance —
// same matching, same tie-breaking, not merely equal weight.
func TestMaxWeightMatrixDifferential(t *testing.T) {
	rng := xrand.New(11)
	s := NewScratch()
	for i := 0; i < 500; i++ {
		nLeft, nRight, edges := scratchInstance(rng)
		want := MaxWeight(nLeft, nRight, edges)
		w := s.WeightMatrix(nLeft, nRight)
		for _, e := range edges {
			if e.W > w[e.L*nRight+e.R] {
				w[e.L*nRight+e.R] = e.W // parallel edges keep the heaviest
			}
		}
		got := s.MaxWeightMatrix(nLeft, nRight)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d (%dx%d, %d edges): matrix %+v, want %+v",
				i, nLeft, nRight, len(edges), got, want)
		}
	}
}

// TestMaxWeightMatrixEmpty: degenerate shapes and the all-zero matrix
// behave like the empty edge list.
func TestMaxWeightMatrixEmpty(t *testing.T) {
	s := NewScratch()
	for _, c := range []struct{ l, r int }{{0, 0}, {0, 5}, {5, 0}, {3, 4}} {
		s.WeightMatrix(c.l, c.r)
		got := s.MaxWeightMatrix(c.l, c.r)
		if got.Weight != 0 || got.Cardinality() != 0 {
			t.Fatalf("%dx%d zero matrix matched something: %+v", c.l, c.r, got)
		}
		if err := got.Validate(c.l, c.r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScratchEmptyAndDegenerate(t *testing.T) {
	s := NewScratch()
	for _, c := range []struct{ l, r int }{{0, 0}, {0, 5}, {5, 0}, {3, 3}} {
		got := s.MaxWeight(c.l, c.r, nil)
		if got.Weight != 0 || got.Cardinality() != 0 {
			t.Fatalf("%dx%d no-edge instance matched something: %+v", c.l, c.r, got)
		}
		if err := got.Validate(c.l, c.r); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkScratchMaxWeight(b *testing.B) {
	rng := xrand.New(3)
	var instances [][3]interface{}
	for i := 0; i < 32; i++ {
		l, r, e := scratchInstance(rng)
		instances = append(instances, [3]interface{}{l, r, e})
	}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := instances[i%len(instances)]
			MaxWeight(in[0].(int), in[1].(int), in[2].([]Edge))
		}
	})
	b.Run("scratch", func(b *testing.B) {
		s := NewScratch()
		for i := 0; i < b.N; i++ {
			in := instances[i%len(instances)]
			s.MaxWeight(in[0].(int), in[1].(int), in[2].([]Edge))
		}
	})
}

// MaxWeight is MaxWeight computed in s's reusable buffers: a
// maximum-weight bipartite matching via the Hungarian algorithm with
// potentials on a dense cost matrix, parallel edges keeping the heaviest
// weight. Only the returned Result is freshly allocated; everything else
// lives in s until the next call.
func (s *Scratch) MaxWeight(nLeft, nRight int, edges []Edge) Result {
	validate(nLeft, nRight, edges)
	res := Result{
		MatchL: filled(nLeft, -1),
		MatchR: filled(nRight, -1),
	}
	if nLeft == 0 || nRight == 0 || len(edges) == 0 {
		return res
	}

	// Weight matrix; absent edges stay at 0 (equivalent to unmatched).
	var maxW int64
	s.w = growI64(s.w, nLeft*nRight)
	clear(s.w)
	for _, e := range edges {
		if e.W > s.w[e.L*nRight+e.R] {
			s.w[e.L*nRight+e.R] = e.W
		}
		if e.W > maxW {
			maxW = e.W
		}
	}
	return s.solveMatrix(nLeft, nRight, maxW, res)
}
