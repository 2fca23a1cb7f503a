// Package matching provides bipartite matching algorithms.
//
// The paper's RecodeOnJoin/RecodeOnMove treat maximum-weight bipartite
// matching as a black box ([14] Galil's survey); this package supplies
// the box: MaxWeight, the Hungarian algorithm (Jonker-Volgenant
// potentials) on a dense padded matrix, O(n^2 m), and Scratch, the same
// solver over reusable memory. The tests cross-check both against an
// independent successive-shortest-paths solver and a brute force.
//
// Weights must be non-negative. "Maximum weight" means maximum total
// weight over all matchings of any cardinality; since all real edges in
// the recoding use weights >= 1, such a matching also matches as many
// vertices as possible subject to weight optimality.
package matching

import "fmt"

// Edge is a weighted edge between left vertex L and right vertex R.
type Edge struct {
	L, R int
	W    int64
}

const inf = int64(1) << 62

// Result describes a matching: MatchL[l] is the right vertex matched to
// left vertex l, or -1; MatchR is the inverse view; Weight is the total.
type Result struct {
	MatchL []int
	MatchR []int
	Weight int64
}

// validate checks edge indices and weights, panicking on programmer error.
func validate(nLeft, nRight int, edges []Edge) {
	if nLeft < 0 || nRight < 0 {
		panic("matching: negative partition size")
	}
	for _, e := range edges {
		if e.L < 0 || e.L >= nLeft || e.R < 0 || e.R >= nRight {
			panic(fmt.Sprintf("matching: edge (%d,%d) out of range %dx%d", e.L, e.R, nLeft, nRight))
		}
		if e.W < 0 {
			panic(fmt.Sprintf("matching: negative weight %d on edge (%d,%d)", e.W, e.L, e.R))
		}
	}
}

// MaxWeight returns a maximum-weight matching using the Hungarian
// algorithm with potentials on a dense cost matrix. Parallel edges keep
// the heaviest weight. Runs in O(n^2 m) time and O(n m) space where
// n = nLeft (padded rows) and m >= nRight.
func MaxWeight(nLeft, nRight int, edges []Edge) Result {
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
	w := make([][]int64, nLeft)
	for i := range w {
		w[i] = make([]int64, nRight)
	}
	for _, e := range edges {
		if e.W > w[e.L][e.R] {
			w[e.L][e.R] = e.W
		}
		if e.W > maxW {
			maxW = e.W
		}
	}

	// The Hungarian solver needs rows <= cols; pad columns with
	// zero-weight slack if necessary. Cost = maxW - weight transforms
	// maximization into minimization; zero-weight cells cost maxW, so a
	// "match" through them is equivalent to being unmatched and is
	// stripped afterwards.
	cols := nRight
	if nLeft > cols {
		cols = nLeft
	}
	cost := make([][]int64, nLeft)
	for i := range cost {
		cost[i] = make([]int64, cols)
		for j := 0; j < cols; j++ {
			if j < nRight {
				cost[i][j] = maxW - w[i][j]
			} else {
				cost[i][j] = maxW
			}
		}
	}

	assign := solveAssignment(cost)
	for l, r := range assign {
		if r >= 0 && r < nRight && w[l][r] > 0 {
			res.MatchL[l] = r
			res.MatchR[r] = l
			res.Weight += w[l][r]
		}
	}
	return res
}

// solveAssignment solves the rectangular assignment problem (rows <=
// cols) minimizing total cost, returning the column assigned to each row.
// Classic O(n^2 m) Hungarian algorithm with row/column potentials.
func solveAssignment(cost [][]int64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	m := len(cost[0])
	if n > m {
		panic("matching: solveAssignment requires rows <= cols")
	}
	u := make([]int64, n+1)
	v := make([]int64, m+1)
	p := make([]int, m+1)   // p[j] = row matched to column j (1-based), 0 = free
	way := make([]int, m+1) // back-pointers along the alternating tree

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	assign := filled(n, -1)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	return assign
}

func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}
