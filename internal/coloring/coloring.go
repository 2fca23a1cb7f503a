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

// Graph is a read-only undirected graph whose vertices are addressed by
// dense slots, such as an adhoc.Network's conflict view: Slots lists
// every vertex's slot ascending by vertex ID, ID names the vertex in a
// slot, every slot is below SlotCap, Degree counts a vertex's
// neighbors, and ForEachNeighbor visits each neighbor's slot once in
// unspecified order. The colorers keep per-vertex state in slices
// indexed by slot; slots never decide an order (ties fall to the lower
// ID, the order of Slots).
type Graph interface {
	Slots() []int32
	ID(s int32) graph.NodeID
	SlotCap() int
	Degree(s int32) int
	ForEachNeighbor(s int32, fn func(int32))
}

// DSATUR colors the graph with the Brelaz heuristic: repeatedly color the
// uncolored vertex of maximum saturation (number of distinct neighbor
// colors), breaking ties by higher degree then lower ID, with the lowest
// available color. The graph is read in place and never copied.
func DSATUR(g Graph) toca.Assignment {
	order := g.Slots()
	n := g.SlotCap()
	deg := make([]int, n)
	sat := make([]toca.ColorSet, n)
	colored := make([]bool, n)
	for _, s := range order {
		deg[s] = g.Degree(s)
		sat[s] = toca.NewColorSet()
	}
	a := make(toca.Assignment, len(order))
	for range order {
		pick, bestSat, bestDeg := int32(-1), -1, -1
		for _, s := range order {
			if colored[s] {
				continue
			}
			if d := sat[s].Len(); d > bestSat || (d == bestSat && deg[s] > bestDeg) {
				pick, bestSat, bestDeg = s, d, deg[s]
			}
		}
		c := sat[pick].LowestFree()
		colored[pick] = true
		a[g.ID(pick)] = c
		g.ForEachNeighbor(pick, func(v int32) {
			if !colored[v] {
				sat[v].Add(c)
			}
		})
	}
	return a
}
