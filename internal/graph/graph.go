// Package graph implements the dynamic directed graph underlying the
// ad-hoc network model: nodes are mobiles, and an edge u -> v means v is
// within u's transmission range (v hears u).
//
// The structure supports incremental node and edge updates, queries over
// in- and out-neighborhoods, and BFS hop distances, all of which the
// recoding strategies and the distributed runtime need. Each node keeps
// its out- and in-neighbors as ascending slices, so every accessor,
// ForEachOut and ForEachIn included, visits neighbors in ascending ID
// order and simulations are bit-reproducible.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node (mobile) in the network.
type NodeID int

// adjacency is one node's neighbor lists, each ascending and without
// duplicates.
type adjacency struct {
	out, in []NodeID
}

// insertSorted adds id to the ascending slice s, reporting whether it
// was absent.
func insertSorted(s []NodeID, id NodeID) ([]NodeID, bool) {
	i, found := slices.BinarySearch(s, id)
	if found {
		return s, false
	}
	return slices.Insert(s, i, id), true
}

// removeSorted deletes id from the ascending slice s, reporting whether
// it was present.
func removeSorted(s []NodeID, id NodeID) ([]NodeID, bool) {
	i, found := slices.BinarySearch(s, id)
	if !found {
		return s, false
	}
	return slices.Delete(s, i, i+1), true
}

// copyOf returns a fresh non-nil copy of s.
func copyOf(s []NodeID) []NodeID {
	return append(make([]NodeID, 0, len(s)), s...)
}

// Digraph is a mutable directed graph. The zero value is not usable;
// construct with New.
type Digraph struct {
	adj map[NodeID]*adjacency
	m   int // edge count
}

// New returns an empty directed graph.
func New() *Digraph {
	return &Digraph{adj: make(map[NodeID]*adjacency)}
}

// out returns id's out-neighbors (nil for a missing node). The slice is
// the graph's own: callers must not keep or modify it.
func (g *Digraph) out(id NodeID) []NodeID {
	if a := g.adj[id]; a != nil {
		return a.out
	}
	return nil
}

// in returns id's in-neighbors, under the same terms as out.
func (g *Digraph) in(id NodeID) []NodeID {
	if a := g.adj[id]; a != nil {
		return a.in
	}
	return nil
}

// AddNode inserts an isolated node. Adding an existing node is a no-op.
func (g *Digraph) AddNode(id NodeID) {
	if _, ok := g.adj[id]; ok {
		return
	}
	g.adj[id] = &adjacency{}
}

// RemoveNode deletes a node and all incident edges. Removing a missing
// node is a no-op.
func (g *Digraph) RemoveNode(id NodeID) {
	a, ok := g.adj[id]
	if !ok {
		return
	}
	for _, v := range a.out {
		av := g.adj[v]
		av.in, _ = removeSorted(av.in, id)
		g.m--
	}
	for _, u := range a.in {
		au := g.adj[u]
		au.out, _ = removeSorted(au.out, id)
		g.m--
	}
	delete(g.adj, id)
}

// HasNode reports whether id is present.
func (g *Digraph) HasNode(id NodeID) bool {
	_, ok := g.adj[id]
	return ok
}

// AddEdge inserts the directed edge u -> v. Both endpoints must already
// exist and u must differ from v; violations panic because they indicate
// a bug in the network-maintenance layer, not a runtime condition.
func (g *Digraph) AddEdge(u, v NodeID) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	au, ok := g.adj[u]
	if !ok {
		panic(fmt.Sprintf("graph: AddEdge tail %d not in graph", u))
	}
	av, ok := g.adj[v]
	if !ok {
		panic(fmt.Sprintf("graph: AddEdge head %d not in graph", v))
	}
	var added bool
	if au.out, added = insertSorted(au.out, v); !added {
		return
	}
	av.in, _ = insertSorted(av.in, u)
	g.m++
}

// RemoveEdge deletes the directed edge u -> v if present.
func (g *Digraph) RemoveEdge(u, v NodeID) {
	au, ok := g.adj[u]
	if !ok {
		return
	}
	var removed bool
	if au.out, removed = removeSorted(au.out, v); !removed {
		return
	}
	av := g.adj[v]
	av.in, _ = removeSorted(av.in, u)
	g.m--
}

// HasEdge reports whether the directed edge u -> v exists.
func (g *Digraph) HasEdge(u, v NodeID) bool {
	_, found := slices.BinarySearch(g.out(u), v)
	return found
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int { return g.m }

// Nodes returns all node IDs in ascending order.
func (g *Digraph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// OutNeighbors returns a copy of the nodes v with an edge id -> v,
// ascending. The caller owns the copy, so it may mutate the graph while
// ranging over it.
func (g *Digraph) OutNeighbors(id NodeID) []NodeID {
	return copyOf(g.out(id))
}

// InNeighbors returns a copy of the nodes u with an edge u -> id,
// ascending, under the same terms as OutNeighbors.
func (g *Digraph) InNeighbors(id NodeID) []NodeID {
	return copyOf(g.in(id))
}

// ForEachOut calls fn for every out-neighbor of id, in ascending order.
// It is the allocation-free companion of OutNeighbors for hot paths; fn
// must not mutate the graph.
func (g *Digraph) ForEachOut(id NodeID, fn func(NodeID)) {
	for _, v := range g.out(id) {
		fn(v)
	}
}

// ForEachIn calls fn for every in-neighbor of id, in ascending order;
// fn must not mutate the graph.
func (g *Digraph) ForEachIn(id NodeID, fn func(NodeID)) {
	for _, u := range g.in(id) {
		fn(u)
	}
}

// Edges returns every directed edge as a (tail, head) pair, sorted by
// tail then head. Intended for tests and serialization.
func (g *Digraph) Edges() [][2]NodeID {
	edges := make([][2]NodeID, 0, g.m)
	for _, u := range g.Nodes() {
		for _, v := range g.adj[u].out {
			edges = append(edges, [2]NodeID{u, v})
		}
	}
	return edges
}

// Clone returns a deep copy of g; it shares no neighbor slice with g.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{adj: make(map[NodeID]*adjacency, len(g.adj)), m: g.m}
	for id, a := range g.adj {
		c.adj[id] = &adjacency{out: slices.Clone(a.out), in: slices.Clone(a.in)}
	}
	return c
}

// HopDistances returns BFS hop counts from src over the *undirected*
// version of the graph (communication reachability regardless of edge
// direction). Unreachable nodes are absent from the result. Used by the
// parallel-join safety check (two joins must be >= 5 hops apart).
func (g *Digraph) HopDistances(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int)
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		d := dist[u]
		visit := func(v NodeID) {
			if _, ok := dist[v]; !ok {
				dist[v] = d + 1
				queue = append(queue, v)
			}
		}
		g.ForEachOut(u, visit)
		g.ForEachIn(u, visit)
	}
	return dist
}

// WithinHops returns all nodes at undirected hop distance <= k from src,
// excluding src itself, in ascending order.
func (g *Digraph) WithinHops(src NodeID, k int) []NodeID {
	dist := g.HopDistances(src)
	out := make([]NodeID, 0, len(dist))
	for id, d := range dist {
		if id != src && d <= k {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Validate checks internal consistency: neighbor lists strictly
// ascending, no self-loops or dangling endpoints, in/out mirrors agree,
// and the edge count matches. It returns an error describing the first
// inconsistency, or nil. Intended for tests.
func (g *Digraph) Validate() error {
	count := 0
	for u, a := range g.adj {
		for dir, lst := range [2][]NodeID{a.out, a.in} {
			for i, v := range lst {
				if i > 0 && lst[i-1] >= v {
					return fmt.Errorf("graph: neighbor list of %d not strictly ascending at %d", u, v)
				}
				if v == u {
					return fmt.Errorf("graph: self-loop on node %d", u)
				}
				if _, ok := g.adj[v]; !ok {
					return fmt.Errorf("graph: node %d lists missing neighbor %d", u, v)
				}
				if dir == 0 {
					count++
					if _, ok := slices.BinarySearch(g.adj[v].in, u); !ok {
						return fmt.Errorf("graph: edge %d->%d missing from in-adjacency", u, v)
					}
				} else if _, ok := slices.BinarySearch(g.adj[v].out, u); !ok {
					return fmt.Errorf("graph: edge %d->%d missing from out-adjacency", v, u)
				}
			}
		}
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count %d != recorded %d", count, g.m)
	}
	return nil
}
