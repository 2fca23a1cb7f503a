// Package coloring implements the graph-coloring heuristics the paper's
// centralized baseline rests on: the DSATUR heuristic of Brelaz [9],
// which BBB runs, and Recursive Largest First, its ablation alternative.
// Colors are the positive integers of package toca. Both read any Graph,
// such as the conflict-graph view of an adhoc.Network, which the BBB
// baseline colors in place. The sequential greedy colorer, its vertex
// orderings and the map-backed Adjacency test graph live in the tests.
package coloring

import (
	"repro/internal/graph"
	"repro/internal/toca"
)

// Graph is a read-only undirected graph: Nodes lists the vertices
// ascending, Degree counts a vertex's neighbors, and ForEachNeighbor
// visits each neighbor once in unspecified order.
type Graph interface {
	Nodes() []graph.NodeID
	Degree(id graph.NodeID) int
	ForEachNeighbor(id graph.NodeID, fn func(graph.NodeID))
}

// positions maps each vertex of ids to its index, so per-vertex state
// can live in slices parallel to ids.
func positions(ids []graph.NodeID) map[graph.NodeID]int {
	at := make(map[graph.NodeID]int, len(ids))
	for i, id := range ids {
		at[id] = i
	}
	return at
}

// DSATUR colors the graph with the Brelaz heuristic: repeatedly color the
// uncolored vertex of maximum saturation (number of distinct neighbor
// colors), breaking ties by higher degree then lower ID, with the lowest
// available color. Per-vertex state lives in slices indexed by position
// in g.Nodes(), so the graph is read in place and never copied.
func DSATUR(g Graph) toca.Assignment {
	ids := g.Nodes()
	n := len(ids)
	at := positions(ids)
	deg := make([]int, n)
	sat := make([]toca.ColorSet, n)
	colored := make([]bool, n)
	for i, id := range ids {
		deg[i] = g.Degree(id)
		sat[i] = toca.NewColorSet()
	}
	a := make(toca.Assignment, n)
	for done := 0; done < n; done++ {
		pick, bestSat, bestDeg := -1, -1, -1
		for i := range ids {
			if colored[i] {
				continue
			}
			if s := sat[i].Len(); s > bestSat || (s == bestSat && deg[i] > bestDeg) {
				pick, bestSat, bestDeg = i, s, deg[i]
			}
		}
		c := sat[pick].LowestFree()
		colored[pick] = true
		a[ids[pick]] = c
		g.ForEachNeighbor(ids[pick], func(v graph.NodeID) {
			if j := at[v]; !colored[j] {
				sat[j].Add(c)
			}
		})
	}
	return a
}
