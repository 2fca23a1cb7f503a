// Package graph implements the dynamic directed graph underlying the
// ad-hoc network model: nodes are mobiles, and an edge u -> v means v is
// within u's transmission range (v hears u).
//
// The structure supports incremental node and edge updates, queries over
// in- and out-neighborhoods, and BFS hop distances, all of which the
// recoding strategies and the distributed runtime need.
//
// # Slots
//
// Each live node holds a dense int32 slot, so per-node state can live in
// slices instead of maps keyed by NodeID: the digraph's own adjacency,
// and (through the slot accessors) the strategies' colors and the
// network's conflict index. A leaver's slot goes on a free list and is
// handed to a later joiner; every AddNode bumps the slot's generation,
// so state cached under a slot can tell whether its owner changed.
// Slots are an address, never an order: which slot a node holds depends
// on the history of joins and leaves (a snapshot restore numbers them
// differently), and nothing is persisted or compared by slot. Each
// node's out- and in-neighbors are kept ascending by neighbor ID, so
// every accessor, ForEachOut and ForEachIn included, visits neighbors in
// ascending ID order, and simulations are bit-reproducible whatever the
// slot numbering.
package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// NodeID identifies a node (mobile) in the network.
type NodeID int

// adjacency is one node's neighbor lists: slots, each list ascending by
// the neighbor's ID and without duplicates.
type adjacency struct {
	out, in []int32
}

// Digraph is a mutable directed graph. The zero value is not usable;
// construct with New.
type Digraph struct {
	slots map[NodeID]int32 // live node -> its slot
	owner []NodeID         // slot -> the node that holds (or last held) it
	// gen is each slot's generation: odd while a node holds the slot,
	// bumped when a node takes it (AddNode) and when it leaves. A
	// (slot, gen) pair therefore names one node's tenure, never its
	// successor's.
	gen  []uint32
	adj  []adjacency // slot -> neighbor slots
	free []int32     // slots released by RemoveNode, reused last-in first
	m    int         // edge count
}

// New returns an empty directed graph.
func New() *Digraph {
	return &Digraph{slots: make(map[NodeID]int32)}
}

// search finds id in the slot list s, ordered by owner ID: its index
// and whether it is present (else the index it would be inserted at).
func (g *Digraph) search(s []int32, id NodeID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.owner[s[mid]] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && g.owner[s[lo]] == id
}

// insert adds slot x (owned by a node not yet listed) to the list s,
// reporting whether it was absent.
func (g *Digraph) insert(s []int32, x int32) ([]int32, bool) {
	i, found := g.search(s, g.owner[x])
	if found {
		return s, false
	}
	return slices.Insert(s, i, x), true
}

// remove deletes slot x from the list s, reporting whether it was
// present.
func (g *Digraph) remove(s []int32, x int32) ([]int32, bool) {
	i, found := g.search(s, g.owner[x])
	if !found {
		return s, false
	}
	return slices.Delete(s, i, i+1), true
}

// ids maps a slot list to its owners' IDs, in a fresh non-nil slice.
func (g *Digraph) ids(s []int32) []NodeID {
	out := make([]NodeID, len(s))
	for i, x := range s {
		out[i] = g.owner[x]
	}
	return out
}

// out returns id's out-neighbor slots (nil for a missing node). The
// slice is the graph's own: callers must not keep or modify it.
func (g *Digraph) out(id NodeID) []int32 {
	if s, ok := g.slots[id]; ok {
		return g.adj[s].out
	}
	return nil
}

// in returns id's in-neighbor slots, under the same terms as out.
func (g *Digraph) in(id NodeID) []int32 {
	if s, ok := g.slots[id]; ok {
		return g.adj[s].in
	}
	return nil
}

// AddNode inserts an isolated node, in a free slot if there is one.
// Adding an existing node is a no-op.
func (g *Digraph) AddNode(id NodeID) {
	if _, ok := g.slots[id]; ok {
		return
	}
	var s int32
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		s = int32(len(g.owner))
		g.owner = append(g.owner, 0)
		g.gen = append(g.gen, 0)
		g.adj = append(g.adj, adjacency{})
	}
	g.owner[s] = id
	g.gen[s]++
	g.slots[id] = s
}

// RemoveNode deletes a node and all incident edges, releasing its slot.
// Removing a missing node is a no-op.
func (g *Digraph) RemoveNode(id NodeID) {
	s, ok := g.slots[id]
	if !ok {
		return
	}
	a := &g.adj[s]
	for _, v := range a.out {
		g.adj[v].in, _ = g.remove(g.adj[v].in, s)
		g.m--
	}
	for _, u := range a.in {
		g.adj[u].out, _ = g.remove(g.adj[u].out, s)
		g.m--
	}
	a.out, a.in = a.out[:0], a.in[:0]
	delete(g.slots, id)
	g.gen[s]++
	g.free = append(g.free, s)
}

// HasNode reports whether id is present.
func (g *Digraph) HasNode(id NodeID) bool {
	_, ok := g.slots[id]
	return ok
}

// AddSlotEdge inserts the edge from the node in slot su to the node in
// slot sv (a no-op if present). Both slots must be live and distinct.
func (g *Digraph) AddSlotEdge(su, sv int32) {
	var added bool
	if g.adj[su].out, added = g.insert(g.adj[su].out, sv); !added {
		return
	}
	g.adj[sv].in, _ = g.insert(g.adj[sv].in, su)
	g.m++
}

// RemoveSlotEdge deletes the edge from the node in slot su to the node
// in slot sv (a no-op if absent). Both slots must be live.
func (g *Digraph) RemoveSlotEdge(su, sv int32) {
	var removed bool
	if g.adj[su].out, removed = g.remove(g.adj[su].out, sv); !removed {
		return
	}
	g.adj[sv].in, _ = g.remove(g.adj[sv].in, su)
	g.m--
}

// HasEdge reports whether the directed edge u -> v exists.
func (g *Digraph) HasEdge(u, v NodeID) bool {
	_, found := g.search(g.out(u), v)
	return found
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.slots) }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int { return g.m }

// Nodes returns all node IDs in ascending order.
func (g *Digraph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.slots))
	for s, id := range g.owner {
		if g.gen[s]&1 == 1 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Slots returns every live node's slot, ascending by node ID: the
// vertex order of Nodes, as addresses.
func (g *Digraph) Slots() []int32 {
	out := make([]int32, 0, len(g.slots))
	for s := range g.owner {
		if g.gen[s]&1 == 1 {
			out = append(out, int32(s))
		}
	}
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(g.owner[a], g.owner[b]) })
	return out
}

// Slot returns the slot id holds, and false if id is not in the graph.
func (g *Digraph) Slot(id NodeID) (int32, bool) {
	s, ok := g.slots[id]
	return s, ok
}

// SlotCap returns the number of slots ever allocated: every slot, live
// or free, is below it, so it sizes slot-indexed state.
func (g *Digraph) SlotCap() int { return len(g.owner) }

// Owner returns the node holding slot s (or, for a free slot, the node
// that last held it).
func (g *Digraph) Owner(s int32) NodeID { return g.owner[s] }

// Gen returns slot s's generation; it changes whenever the slot changes
// hands, so state cached under (s, Gen(s)) is stale once they differ.
func (g *Digraph) Gen(s int32) uint32 { return g.gen[s] }

// OutSlots returns the out-neighbor slots of the node in slot s,
// ascending by neighbor ID. The slice is the graph's own: callers must
// not keep or modify it, nor mutate the graph while ranging over it.
func (g *Digraph) OutSlots(s int32) []int32 { return g.adj[s].out }

// InSlots returns the in-neighbor slots of the node in slot s, under
// the same terms as OutSlots.
func (g *Digraph) InSlots(s int32) []int32 { return g.adj[s].in }

// OutNeighbors returns a copy of the nodes v with an edge id -> v,
// ascending. The caller owns the copy, so it may mutate the graph while
// ranging over it.
func (g *Digraph) OutNeighbors(id NodeID) []NodeID {
	return g.ids(g.out(id))
}

// InNeighbors returns a copy of the nodes u with an edge u -> id,
// ascending, under the same terms as OutNeighbors.
func (g *Digraph) InNeighbors(id NodeID) []NodeID {
	return g.ids(g.in(id))
}

// ForEachOut calls fn for every out-neighbor of id, in ascending order.
// It is the allocation-free companion of OutNeighbors for hot paths; fn
// must not mutate the graph.
func (g *Digraph) ForEachOut(id NodeID, fn func(NodeID)) {
	for _, v := range g.out(id) {
		fn(g.owner[v])
	}
}

// ForEachIn calls fn for every in-neighbor of id, in ascending order;
// fn must not mutate the graph.
func (g *Digraph) ForEachIn(id NodeID, fn func(NodeID)) {
	for _, u := range g.in(id) {
		fn(g.owner[u])
	}
}

// Edges returns every directed edge as a (tail, head) pair, sorted by
// tail then head. Intended for tests and serialization.
func (g *Digraph) Edges() [][2]NodeID {
	edges := make([][2]NodeID, 0, g.m)
	for _, su := range g.Slots() {
		for _, v := range g.adj[su].out {
			edges = append(edges, [2]NodeID{g.owner[su], g.owner[v]})
		}
	}
	return edges
}

// Clone returns a deep copy of g, slot numbering included; it shares no
// neighbor slice with g.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		slots: maps.Clone(g.slots),
		owner: slices.Clone(g.owner),
		gen:   slices.Clone(g.gen),
		adj:   make([]adjacency, len(g.adj)),
		free:  slices.Clone(g.free),
		m:     g.m,
	}
	for s, a := range g.adj {
		c.adj[s] = adjacency{out: slices.Clone(a.out), in: slices.Clone(a.in)}
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

// Validate checks internal consistency: the slot table agrees with the
// node set and the free list, neighbor lists are strictly ascending by
// ID, there are no self-loops or dangling endpoints, in/out mirrors
// agree, and the edge count matches. It returns an error describing the
// first inconsistency, or nil. Intended for tests.
func (g *Digraph) Validate() error {
	if len(g.owner) != len(g.gen) || len(g.owner) != len(g.adj) {
		return fmt.Errorf("graph: slot tables disagree in length")
	}
	if len(g.slots)+len(g.free) != len(g.owner) {
		return fmt.Errorf("graph: %d live + %d free slots != %d allocated", len(g.slots), len(g.free), len(g.owner))
	}
	for id, s := range g.slots {
		if g.owner[s] != id || g.gen[s]&1 != 1 {
			return fmt.Errorf("graph: node %d maps to slot %d held by %d (gen %d)", id, s, g.owner[s], g.gen[s])
		}
	}
	for _, s := range g.free {
		a := g.adj[s]
		if g.gen[s]&1 != 0 || len(a.out)+len(a.in) != 0 {
			return fmt.Errorf("graph: free slot %d is held or has neighbors", s)
		}
	}
	count := 0
	for u, su := range g.slots {
		a := g.adj[su]
		for dir, lst := range [2][]int32{a.out, a.in} {
			for i, sv := range lst {
				v := g.owner[sv]
				if i > 0 && g.owner[lst[i-1]] >= v {
					return fmt.Errorf("graph: neighbor list of %d not strictly ascending at %d", u, v)
				}
				if v == u {
					return fmt.Errorf("graph: self-loop on node %d", u)
				}
				if s, ok := g.slots[v]; !ok || s != sv {
					return fmt.Errorf("graph: node %d lists missing neighbor %d", u, v)
				}
				if dir == 0 {
					count++
					if _, ok := g.search(g.adj[sv].in, u); !ok {
						return fmt.Errorf("graph: edge %d->%d missing from in-adjacency", u, v)
					}
				} else if _, ok := g.search(g.adj[sv].out, u); !ok {
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
