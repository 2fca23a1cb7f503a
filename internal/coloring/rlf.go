package coloring

import "repro/internal/toca"

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
	order := g.Slots()
	a := make(toca.Assignment, len(order))
	uncolored := make([]bool, g.SlotCap())
	for _, s := range order {
		uncolored[s] = true
	}
	candidate := make([]bool, len(uncolored))

	// neighbors counts the neighbors of vertex s inside the set in.
	neighbors := func(s int32, in []bool) int {
		count := 0
		g.ForEachNeighbor(s, func(v int32) {
			if in[v] {
				count++
			}
		})
		return count
	}
	// exclude removes vertex s and its neighbors from the candidates.
	exclude := func(s int32) {
		candidate[s] = false
		g.ForEachNeighbor(s, func(v int32) { candidate[v] = false })
	}

	// Vertices are scanned in ascending ID order, so every tie below
	// falls to the lowest ID.
	for c, left := toca.Color(1), len(order); left > 0; c++ {
		// Candidates for this class: all uncolored vertices.
		copy(candidate, uncolored)
		// Seed: candidate with most uncolored neighbors.
		seed, bestDeg := int32(-1), -1
		for _, s := range order {
			if !candidate[s] {
				continue
			}
			if d := neighbors(s, uncolored); d > bestDeg {
				bestDeg, seed = d, s
			}
		}
		class := []int32{seed}
		exclude(seed)

		// Absorb: candidate maximizing neighbors outside the candidate
		// set (i.e., already excluded by the class), ties by fewest
		// neighbors inside, then lowest ID.
		for {
			pick, bestOut, bestIn := int32(-1), -1, 1<<30
			for _, s := range order {
				if !candidate[s] {
					continue
				}
				in := neighbors(s, candidate)
				if out := g.Degree(s) - in; out > bestOut || (out == bestOut && in < bestIn) {
					pick, bestOut, bestIn = s, out, in
				}
			}
			if pick < 0 {
				break
			}
			class = append(class, pick)
			exclude(pick)
		}
		for _, s := range class {
			a[g.ID(s)] = c
			uncolored[s] = false
			left--
		}
	}
	return a
}
