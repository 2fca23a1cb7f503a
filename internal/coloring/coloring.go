// Package coloring implements the graph-coloring heuristics the paper's
// centralized baseline rests on: sequential greedy coloring over a given
// vertex order, the DSATUR heuristic of Brelaz [9], and smallest-last
// ordering. Colors are the positive integers of package toca. DSATUR and
// RLF read any Graph — an Adjacency, or the conflict-graph view of an
// adhoc.Network, which the BBB baseline colors in place; the ordering
// helpers take an Adjacency.
package coloring

import (
	"sort"

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

// Adjacency is an undirected graph given as sorted neighbor lists.
type Adjacency map[graph.NodeID][]graph.NodeID

var _ Graph = Adjacency(nil)

// Nodes returns the vertex set ascending.
func (adj Adjacency) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(adj))
	for id := range adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the number of neighbors of id.
func (adj Adjacency) Degree(id graph.NodeID) int { return len(adj[id]) }

// ForEachNeighbor calls fn for every neighbor of id, ascending.
func (adj Adjacency) ForEachNeighbor(id graph.NodeID, fn func(graph.NodeID)) {
	for _, v := range adj[id] {
		fn(v)
	}
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

// Greedy colors vertices in the given order, assigning each the lowest
// positive color unused by its already-colored neighbors. Vertices absent
// from order are left uncolored.
func Greedy(adj Adjacency, order []graph.NodeID) toca.Assignment {
	a := make(toca.Assignment, len(adj))
	used := toca.NewColorSet()
	for _, u := range order {
		used.Clear()
		for _, v := range adj[u] {
			used.Add(a[v])
		}
		a[u] = used.LowestFree()
	}
	return a
}

// IdentityOrder returns the vertices in ascending ID order.
func IdentityOrder(adj Adjacency) []graph.NodeID { return adj.Nodes() }

// LargestFirstOrder returns vertices by decreasing degree (Welsh-Powell),
// ties broken by ascending ID.
func LargestFirstOrder(adj Adjacency) []graph.NodeID {
	order := adj.Nodes()
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := len(adj[order[i]]), len(adj[order[j]])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	return order
}

// SmallestLastOrder returns the smallest-last ordering: repeatedly remove
// a minimum-degree vertex; the removal sequence reversed is the coloring
// order. Greedy coloring over this order uses at most degeneracy+1
// colors.
func SmallestLastOrder(adj Adjacency) []graph.NodeID {
	n := len(adj)
	deg := make(map[graph.NodeID]int, n)
	removed := make(map[graph.NodeID]bool, n)
	for id, nbrs := range adj {
		deg[id] = len(nbrs)
	}
	ids := adj.Nodes()
	order := make([]graph.NodeID, n)
	for i := n - 1; i >= 0; i-- {
		// Pick the minimum-degree unremoved vertex, lowest ID on ties.
		var pick graph.NodeID
		best := -1
		for _, id := range ids {
			if removed[id] {
				continue
			}
			if best == -1 || deg[id] < best || (deg[id] == best && id < pick) {
				best = deg[id]
				pick = id
			}
		}
		removed[pick] = true
		order[i] = pick
		for _, v := range adj[pick] {
			if !removed[v] {
				deg[v]--
			}
		}
	}
	return order
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

// Proper reports whether a is a proper coloring of adj: every colored
// vertex differs from all of its colored neighbors, and every vertex of
// adj is colored.
func Proper(adj Adjacency, a toca.Assignment) bool {
	for u, nbrs := range adj {
		if a[u] == toca.None {
			return false
		}
		for _, v := range nbrs {
			if a[u] == a[v] {
				return false
			}
		}
	}
	return true
}

// CountColors returns the number of distinct colors used by a.
func CountColors(a toca.Assignment) int {
	seen := make(map[toca.Color]struct{})
	for _, c := range a {
		if c != toca.None {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}
