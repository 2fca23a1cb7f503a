package matching

import "fmt"

// Scratch holds the Hungarian solver's working memory so a caller that
// solves many matchings in sequence (Minim recodes on every join/move
// event) reuses one set of buffers instead of reallocating the dense
// weight and cost matrices per event. The zero value is ready to use; a
// Scratch is NOT safe for concurrent use — give each goroutine its own.
//
// MaxWeight (the package-level function) remains the allocation-per-call
// path and is unchanged; Scratch.MaxWeight computes the identical result
// (the two are differentially tested against each other).
type Scratch struct {
	w    []int64 // nLeft x nRight weight matrix, flattened row-major
	cost []int64 // nLeft x cols cost matrix, flattened row-major
	u, v []int64 // row / column potentials (1-based)
	minv []int64 // per-column slack of the current alternating tree
	p    []int   // p[j] = row matched to column j (1-based), 0 = free
	way  []int   // back-pointers along the alternating tree
	used []bool  // columns in the current tree
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// WeightMatrix returns the scratch's nLeft x nRight weight matrix
// (flattened row-major), zeroed and ready to fill. Callers whose edge
// structure is "dense minus a sparse forbidden set" (Minim's recoding)
// write weights into the cells directly and solve with MaxWeightMatrix,
// skipping the edge-list detour entirely. The slice is only valid until
// the next Scratch call.
func (s *Scratch) WeightMatrix(nLeft, nRight int) []int64 {
	if nLeft < 0 || nRight < 0 {
		panic("matching: negative partition size")
	}
	s.w = growI64(s.w, nLeft*nRight)
	clear(s.w)
	return s.w
}

// MaxWeightMatrix solves over the matrix previously obtained from
// WeightMatrix (cell [l*nRight+r] = weight of edge l-r, 0 = no edge).
// It returns the IDENTICAL Result that MaxWeight / Scratch.MaxWeight
// would return for the equivalent edge list — same matching, same
// tie-breaking — because all three share one cost build and solve.
func (s *Scratch) MaxWeightMatrix(nLeft, nRight int) Result {
	res := Result{
		MatchL: filled(nLeft, -1),
		MatchR: filled(nRight, -1),
	}
	if nLeft == 0 || nRight == 0 {
		return res
	}
	var maxW int64
	for _, w := range s.w[:nLeft*nRight] {
		if w < 0 {
			panic(fmt.Sprintf("matching: negative weight %d in matrix", w))
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		// No positive-weight cell means no matchable edge; identical to
		// the empty-edge-list early return.
		return res
	}
	return s.solveMatrix(nLeft, nRight, maxW, res)
}

// solveMatrix is the shared back half of MaxWeight and MaxWeightMatrix:
// cost build over s.w, Hungarian solve, matching extraction.
func (s *Scratch) solveMatrix(nLeft, nRight int, maxW int64, res Result) Result {
	// Pad columns with zero-weight slack so rows <= cols; cost = maxW -
	// weight turns maximization into minimization, exactly as MaxWeight.
	cols := nRight
	if nLeft > cols {
		cols = nLeft
	}
	s.cost = growI64(s.cost, nLeft*cols)
	for i := 0; i < nLeft; i++ {
		for j := 0; j < cols; j++ {
			if j < nRight {
				s.cost[i*cols+j] = maxW - s.w[i*nRight+j]
			} else {
				s.cost[i*cols+j] = maxW
			}
		}
	}

	s.solve(nLeft, cols)
	for j := 1; j <= cols; j++ {
		if i := s.p[j]; i > 0 {
			l, r := i-1, j-1
			if r < nRight && s.w[l*nRight+r] > 0 {
				res.MatchL[l] = r
				res.MatchR[r] = l
				res.Weight += s.w[l*nRight+r]
			}
		}
	}
	return res
}

// solve runs the O(n^2 m) Hungarian algorithm over s.cost (n rows, m
// cols, flattened), leaving the column assignment in s.p. It mirrors
// solveAssignment with the per-call slices hoisted into the scratch.
func (s *Scratch) solve(n, m int) {
	s.u = growI64(s.u, n+1)
	s.v = growI64(s.v, m+1)
	s.minv = growI64(s.minv, m+1)
	clear(s.u)
	clear(s.v)
	if cap(s.p) < m+1 {
		s.p = make([]int, m+1)
		s.way = make([]int, m+1)
		s.used = make([]bool, m+1)
	} else {
		s.p = s.p[:m+1]
		s.way = s.way[:m+1]
		s.used = s.used[:m+1]
	}
	clear(s.p)

	for i := 1; i <= n; i++ {
		s.p[0] = i
		j0 := 0
		for j := range s.minv {
			s.minv[j] = inf
		}
		clear(s.used)
		for {
			s.used[j0] = true
			i0 := s.p[j0]
			delta := inf
			j1 := 0
			row := s.cost[(i0-1)*m:]
			for j := 1; j <= m; j++ {
				if s.used[j] {
					continue
				}
				cur := row[j-1] - s.u[i0] - s.v[j]
				if cur < s.minv[j] {
					s.minv[j] = cur
					s.way[j] = j0
				}
				if s.minv[j] < delta {
					delta = s.minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if s.used[j] {
					s.u[s.p[j]] += delta
					s.v[j] -= delta
				} else {
					s.minv[j] -= delta
				}
			}
			j0 = j1
			if s.p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := s.way[j0]
			s.p[j0] = s.p[j1]
			j0 = j1
		}
	}
}
