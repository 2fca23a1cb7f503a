package matching

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// MaxWeightSSP returns a maximum-weight matching by successive shortest
// augmenting paths over the sparse edge list (min-cost flow with unit
// capacities and SPFA for negative reduced costs). Exact, and
// independent of the Hungarian solver: the tests cross-check MaxWeight
// and Scratch against it, and the matcher ablation bench times both.
func MaxWeightSSP(nLeft, nRight int, edges []Edge) Result {
	validate(nLeft, nRight, edges)
	res := Result{
		MatchL: filled(nLeft, -1),
		MatchR: filled(nRight, -1),
	}
	if nLeft == 0 || nRight == 0 || len(edges) == 0 {
		return res
	}

	// Deduplicate parallel edges keeping the heaviest.
	best := make(map[[2]int]int64, len(edges))
	for _, e := range edges {
		key := [2]int{e.L, e.R}
		if w, ok := best[key]; !ok || e.W > w {
			best[key] = e.W
		}
	}
	adj := make([][]Edge, nLeft)
	for key, w := range best {
		adj[key[0]] = append(adj[key[0]], Edge{L: key[0], R: key[1], W: w})
	}

	// Repeatedly find the most profitable augmenting path (max total
	// weight gain) via SPFA over the residual graph; stop when no path
	// has positive gain.
	for {
		gain, path := bestAugmentingPath(nLeft, nRight, adj, res.MatchL, res.MatchR)
		if gain <= 0 {
			return res
		}
		// path alternates L,R,L,R,...: flip matched status along it.
		for i := 0; i+1 < len(path); i += 2 {
			l, r := path[i], path[i+1]
			res.MatchL[l] = r
			res.MatchR[r] = l
		}
		res.Weight += gain
	}
}

// bestAugmentingPath runs SPFA from all free left vertices, maximizing
// the weight gain (forward unmatched edge adds W, backward matched edge
// subtracts W). It returns the best gain and the corresponding
// alternating path as [l0, r0, l1, r1, ...] where (l_i, r_i) become
// matched pairs.
func bestAugmentingPath(nLeft, nRight int, adj [][]Edge, matchL, matchR []int) (int64, []int) {
	distL := make([]int64, nLeft)  // best gain reaching each left vertex
	distR := make([]int64, nRight) // best gain reaching each right vertex
	prevR := filled(nRight, -1)    // left vertex preceding each right vertex
	inQueue := make([]bool, nLeft)
	for i := range distL {
		distL[i] = -inf
	}
	for j := range distR {
		distR[j] = -inf
	}
	var queue []int
	for l := 0; l < nLeft; l++ {
		if matchL[l] == -1 {
			distL[l] = 0
			queue = append(queue, l)
			inQueue[l] = true
		}
	}
	for len(queue) > 0 {
		l := queue[0]
		queue = queue[1:]
		inQueue[l] = false
		for _, e := range adj[l] {
			if matchL[l] == e.R {
				continue // already matched along this edge
			}
			gain := distL[l] + e.W
			if gain <= distR[e.R] {
				continue
			}
			distR[e.R] = gain
			prevR[e.R] = l
			if ml := matchR[e.R]; ml != -1 {
				// Continue the alternating path through the matched edge.
				back := gain - weightOf(adj, ml, e.R)
				if back > distL[ml] {
					distL[ml] = back
					if !inQueue[ml] {
						queue = append(queue, ml)
						inQueue[ml] = true
					}
				}
			}
		}
	}

	bestGain := int64(0)
	bestR := -1
	for r := 0; r < nRight; r++ {
		if matchR[r] == -1 && distR[r] > bestGain {
			bestGain = distR[r]
			bestR = r
		}
	}
	if bestR == -1 {
		return 0, nil
	}
	// Reconstruct the alternating path backwards.
	var rev []int
	r := bestR
	for {
		l := prevR[r]
		rev = append(rev, r, l)
		if matchL[l] == -1 {
			break
		}
		r = matchL[l]
	}
	// rev = [rK, lK, ..., r0, l0]; reverse into [l0, r0, ...].
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return bestGain, path
}

func weightOf(adj [][]Edge, l, r int) int64 {
	for _, e := range adj[l] {
		if e.R == r {
			return e.W
		}
	}
	panic(fmt.Sprintf("matching: matched edge (%d,%d) not in graph", l, r))
}

// ---- Matcher ablation: dense Hungarian vs sparse SSP ----

// joinSizedInstance builds a matching instance shaped like a recoding
// join: k left vertices, ~maxColor right vertices, one weight-3 edge per
// left vertex, the rest weight 1.
func joinSizedInstance(rng *xrand.RNG, k, colors int) (int, int, []Edge) {
	var edges []Edge
	for l := 0; l < k; l++ {
		oldColor := rng.Intn(colors)
		for r := 0; r < colors; r++ {
			if rng.Float64() < 0.2 {
				continue // forbidden
			}
			w := int64(1)
			if r == oldColor {
				w = 3
			}
			edges = append(edges, Edge{L: l, R: r, W: w})
		}
	}
	return k, colors, edges
}

func BenchmarkMatcherHungarian(b *testing.B) {
	rng := xrand.New(31)
	nL, nR, edges := joinSizedInstance(rng, 12, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeight(nL, nR, edges)
	}
}

func BenchmarkMatcherSSP(b *testing.B) {
	rng := xrand.New(31)
	nL, nR, edges := joinSizedInstance(rng, 12, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightSSP(nL, nR, edges)
	}
}
