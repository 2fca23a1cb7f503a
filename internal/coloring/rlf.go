package coloring

import (
	"repro/internal/graph"
	"repro/internal/toca"
)

// RLF colors the graph with the Recursive Largest First heuristic
// (Leighton): colors are built one class at a time. Each class starts
// from the uncolored vertex with the most uncolored neighbors, then
// greedily absorbs the candidate with the most neighbors *outside* the
// remaining candidate set (maximizing how much of the class's
// "forbidden zone" is reused), until no candidate remains.
//
// RLF typically uses slightly fewer colors than DSATUR on dense graphs
// at a higher constant cost; it is offered as an alternative heuristic
// for the BBB baseline's recoloring step.
func RLF(g Graph) toca.Assignment {
	ids := g.Nodes()
	n := len(ids)
	at := positions(ids)
	a := make(toca.Assignment, n)
	uncolored := make([]bool, n)
	for i := range uncolored {
		uncolored[i] = true
	}
	candidate := make([]bool, n)

	// neighbors counts the neighbors of vertex i inside the set in.
	neighbors := func(i int, in []bool) int {
		count := 0
		g.ForEachNeighbor(ids[i], func(v graph.NodeID) {
			if in[at[v]] {
				count++
			}
		})
		return count
	}
	// exclude removes vertex i and its neighbors from the candidates.
	exclude := func(i int) {
		candidate[i] = false
		g.ForEachNeighbor(ids[i], func(v graph.NodeID) { candidate[at[v]] = false })
	}

	// Vertices are scanned by position, i.e. ascending ID, so every tie
	// below falls to the lowest ID.
	for c, left := toca.Color(1), n; left > 0; c++ {
		// Candidates for this class: all uncolored vertices.
		copy(candidate, uncolored)
		// Seed: candidate with most uncolored neighbors.
		seed, bestDeg := -1, -1
		for i := range ids {
			if !candidate[i] {
				continue
			}
			if d := neighbors(i, uncolored); d > bestDeg {
				bestDeg, seed = d, i
			}
		}
		class := []int{seed}
		exclude(seed)

		// Absorb: candidate maximizing neighbors outside the candidate
		// set (i.e., already excluded by the class), ties by fewest
		// neighbors inside, then lowest ID.
		for {
			pick, bestOut, bestIn := -1, -1, 1<<30
			for i := range ids {
				if !candidate[i] {
					continue
				}
				in := neighbors(i, candidate)
				if out := g.Degree(ids[i]) - in; out > bestOut || (out == bestOut && in < bestIn) {
					pick, bestOut, bestIn = i, out, in
				}
			}
			if pick < 0 {
				break
			}
			class = append(class, pick)
			exclude(pick)
		}
		for _, i := range class {
			a[ids[i]] = c
			uncolored[i] = false
			left--
		}
	}
	return a
}
