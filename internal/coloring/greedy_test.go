package coloring

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/toca"
)

// The sequential greedy colorer, its vertex orderings and the coloring
// predicates below are the oracles and baselines the coloring tests
// measure DSATUR and RLF against.

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

// OrderByColorClassSize returns the vertices sorted so that greedy
// recoloring visits large color classes of a first — a utility for
// recolor-stability experiments.
func OrderByColorClassSize(a toca.Assignment) []graph.NodeID {
	counts := make(map[toca.Color]int)
	for _, c := range a {
		if c != toca.None {
			counts[c]++
		}
	}
	ids := make([]graph.NodeID, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ci, cj := counts[a[ids[i]]], counts[a[ids[j]]]
		if ci != cj {
			return ci > cj
		}
		return ids[i] < ids[j]
	})
	return ids
}
