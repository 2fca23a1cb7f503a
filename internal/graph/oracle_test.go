package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
)

// oracleDigraph is the map-backed Digraph that the slice-backed one
// replaced, kept verbatim (renamed) as the oracle of FuzzDigraphOps: the
// rewrite must answer every query identically, since neighbor order
// feeds the recoding strategies' tie-breaks.

// nodeSet is a set of node IDs.
type nodeSet map[NodeID]struct{}

func (s nodeSet) sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleDigraph is a mutable directed graph. The zero value is not usable;
// construct with newOracle.
type oracleDigraph struct {
	out map[NodeID]nodeSet
	in  map[NodeID]nodeSet
	m   int // edge count
}

// newOracle returns an empty directed graph.
func newOracle() *oracleDigraph {
	return &oracleDigraph{
		out: make(map[NodeID]nodeSet),
		in:  make(map[NodeID]nodeSet),
	}
}

// AddNode inserts an isolated node. Adding an existing node is a no-op.
func (g *oracleDigraph) AddNode(id NodeID) {
	if _, ok := g.out[id]; ok {
		return
	}
	g.out[id] = make(nodeSet)
	g.in[id] = make(nodeSet)
}

// RemoveNode deletes a node and all incident edges. Removing a missing
// node is a no-op.
func (g *oracleDigraph) RemoveNode(id NodeID) {
	if _, ok := g.out[id]; !ok {
		return
	}
	for v := range g.out[id] {
		delete(g.in[v], id)
		g.m--
	}
	for u := range g.in[id] {
		delete(g.out[u], id)
		g.m--
	}
	delete(g.out, id)
	delete(g.in, id)
}

// HasNode reports whether id is present.
func (g *oracleDigraph) HasNode(id NodeID) bool {
	_, ok := g.out[id]
	return ok
}

// AddEdge inserts the directed edge u -> v. Both endpoints must already
// exist and u must differ from v; violations panic because they indicate
// a bug in the network-maintenance layer, not a runtime condition.
func (g *oracleDigraph) AddEdge(u, v NodeID) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	ou, ok := g.out[u]
	if !ok {
		panic(fmt.Sprintf("graph: AddEdge tail %d not in graph", u))
	}
	if _, ok := g.out[v]; !ok {
		panic(fmt.Sprintf("graph: AddEdge head %d not in graph", v))
	}
	if _, dup := ou[v]; dup {
		return
	}
	ou[v] = struct{}{}
	g.in[v][u] = struct{}{}
	g.m++
}

// RemoveEdge deletes the directed edge u -> v if present.
func (g *oracleDigraph) RemoveEdge(u, v NodeID) {
	if ou, ok := g.out[u]; ok {
		if _, present := ou[v]; present {
			delete(ou, v)
			delete(g.in[v], u)
			g.m--
		}
	}
}

// HasEdge reports whether the directed edge u -> v exists.
func (g *oracleDigraph) HasEdge(u, v NodeID) bool {
	ou, ok := g.out[u]
	if !ok {
		return false
	}
	_, present := ou[v]
	return present
}

// NumNodes returns the number of nodes.
func (g *oracleDigraph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of directed edges.
func (g *oracleDigraph) NumEdges() int { return g.m }

// Nodes returns all node IDs in ascending order.
func (g *oracleDigraph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.out))
	for id := range g.out {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OutNeighbors returns the nodes v with an edge id -> v, ascending.
func (g *oracleDigraph) OutNeighbors(id NodeID) []NodeID {
	return g.out[id].sorted()
}

// InNeighbors returns the nodes u with an edge u -> id, ascending.
func (g *oracleDigraph) InNeighbors(id NodeID) []NodeID {
	return g.in[id].sorted()
}

// OutDegree returns the number of out-edges of id.
func (g *oracleDigraph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of in-edges of id.
func (g *oracleDigraph) InDegree(id NodeID) int { return len(g.in[id]) }

// ForEachOut calls fn for every out-neighbor of id, in unspecified order.
// It is the allocation-free companion of OutNeighbors for hot paths.
func (g *oracleDigraph) ForEachOut(id NodeID, fn func(NodeID)) {
	for v := range g.out[id] {
		fn(v)
	}
}

// ForEachIn calls fn for every in-neighbor of id, in unspecified order.
func (g *oracleDigraph) ForEachIn(id NodeID, fn func(NodeID)) {
	for u := range g.in[id] {
		fn(u)
	}
}

// Edges returns every directed edge as a (tail, head) pair, sorted by
// tail then head. Intended for tests and serialization.
func (g *oracleDigraph) Edges() [][2]NodeID {
	edges := make([][2]NodeID, 0, g.m)
	for _, u := range g.Nodes() {
		for _, v := range g.out[u].sorted() {
			edges = append(edges, [2]NodeID{u, v})
		}
	}
	return edges
}

// Clone returns a deep copy of g.
func (g *oracleDigraph) Clone() *oracleDigraph {
	c := newOracle()
	for id := range g.out {
		c.AddNode(id)
	}
	for u, ou := range g.out {
		for v := range ou {
			c.AddEdge(u, v)
		}
	}
	return c
}

// UndirectedNeighbors returns all nodes adjacent to id in either
// direction, ascending and without duplicates. This is the "1-hop
// neighborhood" used by the CP strategy's symmetric view.
func (g *oracleDigraph) UndirectedNeighbors(id NodeID) []NodeID {
	seen := make(nodeSet, len(g.out[id])+len(g.in[id]))
	for v := range g.out[id] {
		seen[v] = struct{}{}
	}
	for u := range g.in[id] {
		seen[u] = struct{}{}
	}
	return seen.sorted()
}

// HopDistances returns BFS hop counts from src over the *undirected*
// version of the graph (communication reachability regardless of edge
// direction). Unreachable nodes are absent from the result. Used by the
// parallel-join safety check (two joins must be >= 5 hops apart).
func (g *oracleDigraph) HopDistances(src NodeID) map[NodeID]int {
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
		for v := range g.out[u] {
			visit(v)
		}
		for v := range g.in[u] {
			visit(v)
		}
	}
	return dist
}

// WithinHops returns all nodes at undirected hop distance <= k from src,
// excluding src itself, in ascending order.
func (g *oracleDigraph) WithinHops(src NodeID, k int) []NodeID {
	dist := g.HopDistances(src)
	out := make([]NodeID, 0, len(dist))
	for id, d := range dist {
		if id != src && d <= k {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxDegree returns the maximum of in- and out-degrees over all nodes
// (the parameter k in the paper's complexity analysis).
func (g *oracleDigraph) MaxDegree() int {
	max := 0
	for id := range g.out {
		if d := len(g.out[id]); d > max {
			max = d
		}
		if d := len(g.in[id]); d > max {
			max = d
		}
	}
	return max
}

// Validate checks internal consistency (in/out mirrors agree, edge count
// matches). It returns an error describing the first inconsistency, or
// nil. Intended for tests.
func (g *oracleDigraph) Validate() error {
	count := 0
	for u, ou := range g.out {
		for v := range ou {
			count++
			if _, ok := g.in[v][u]; !ok {
				return fmt.Errorf("graph: edge %d->%d missing from in-adjacency", u, v)
			}
		}
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count %d != recorded %d", count, g.m)
	}
	for v, iv := range g.in {
		for u := range iv {
			if _, ok := g.out[u][v]; !ok {
				return fmt.Errorf("graph: edge %d->%d missing from out-adjacency", u, v)
			}
		}
	}
	return nil
}

// fuzzIDs bounds the node IDs FuzzDigraphOps draws, so operations often
// hit duplicates, present nodes and missing ones; fuzzOps bounds the
// operations per input, since every step re-checks every node.
const (
	fuzzIDs = 12
	fuzzOps = 48
)

// FuzzDigraphOps decodes bytes into add/remove node/edge operations
// (three bytes each: operation, u, v) and runs them on a Digraph and on
// the map-backed oracle side by side. After every step it compares
// Validate, the counts, Edges, Slots, and per node the neighbor lists
// (by ID and by slot), the ForEach* visit order, degrees and HasEdge,
// and checks the slot invariants: a live node keeps its slot and
// generation, and a fresh node takes the last freed slot (neighbor
// order after reuse is covered by the list comparisons). The derived
// queries (Nodes, MaxDegree, UndirectedNeighbors, hop distances) are
// compared after the last step. Operation 4 clones the graph, checks the clone,
// mutates it, and requires the original to be untouched.
func FuzzDigraphOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 2, 2, 2, 1, 2, 1, 1, 4, 2, 1, 3, 1, 2, 1, 2, 0})
	f.Add([]byte{0, 3, 0, 0, 4, 0, 0, 5, 0, 2, 3, 4, 2, 5, 4, 2, 4, 3, 2, 3, 9, 4, 4, 3, 1, 4, 0, 2, 3, 5})
	f.Add([]byte{2, 1, 2, 0, 7, 7, 2, 7, 7, 3, 7, 1, 1, 7, 7, 4, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*fuzzOps)]
		g, o := New(), newOracle()
		step := 0
		for ; len(ops) >= 3; step, ops = step+1, ops[3:] {
			u, v := NodeID(ops[1]%fuzzIDs), NodeID(ops[2]%fuzzIDs)
			before := slotTable(g)
			slotCap, free := g.SlotCap(), slices.Clone(g.free)
			switch ops[0] % 5 {
			case 0:
				g.AddNode(u)
				o.AddNode(u)
				if _, had := before[u]; !had {
					checkNewSlot(t, step, g, u, slotCap, free)
				}
			case 1:
				g.RemoveNode(u)
				o.RemoveNode(u)
			case 2:
				gp, op := panics(func() { g.AddEdge(u, v) }), panics(func() { o.AddEdge(u, v) })
				if gp != op {
					t.Fatalf("step %d: AddEdge(%d, %d) panicked %v, oracle %v", step, u, v, gp, op)
				}
			case 3:
				g.RemoveEdge(u, v)
				o.RemoveEdge(u, v)
			case 4:
				c := g.Clone()
				compareDigraph(t, step, c, o)
				c.RemoveNode(u)
				c.AddNode(fuzzIDs)
				if c.HasNode(v) {
					c.AddEdge(fuzzIDs, v)
					c.AddEdge(v, fuzzIDs)
				}
			}
			compareDigraph(t, step, g, o)
			for id, was := range before {
				if now, ok := slotTable(g)[id]; ok && now != was {
					t.Fatalf("step %d: live node %d moved from slot %v to %v", step, id, was, now)
				}
			}
		}
		compareDerived(t, step, g, o)
	})
}

// slotTable returns every live node's (slot, generation).
func slotTable(g *Digraph) map[NodeID][2]uint32 {
	tab := make(map[NodeID][2]uint32, g.NumNodes())
	for _, id := range g.Nodes() {
		s, _ := g.Slot(id)
		tab[id] = [2]uint32{uint32(s), g.Gen(s)}
	}
	return tab
}

// checkNewSlot fails t unless the fresh node id took the most recently
// freed slot of free (under a new generation), or a new slot when free
// was empty.
func checkNewSlot(t *testing.T, step int, g *Digraph, id NodeID, slotCap int, free []int32) {
	t.Helper()
	s, ok := g.Slot(id)
	if !ok || g.Owner(s) != id {
		t.Fatalf("step %d: node %d has no slot", step, id)
	}
	if len(free) == 0 {
		if int(s) != slotCap || g.SlotCap() != slotCap+1 {
			t.Fatalf("step %d: node %d took slot %d of %d, want a new slot %d", step, id, s, g.SlotCap(), slotCap)
		}
		return
	}
	if want := free[len(free)-1]; s != want || g.SlotCap() != slotCap {
		t.Fatalf("step %d: node %d took slot %d (cap %d), want freed slot %d (cap %d)", step, id, s, g.SlotCap(), want, slotCap)
	}
	if g.Gen(s)&1 != 1 {
		t.Fatalf("step %d: reused slot %d has even generation %d", step, s, g.Gen(s))
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// mismatch fails t with a query's answer against the oracle's.
func mismatch(t *testing.T, step int, what string, got, want any) {
	t.Helper()
	t.Fatalf("step %d: %s = %v, oracle %v", step, what, got, want)
}

// compareDigraph fails t unless g answers the per-step queries like the
// oracle, for every ID in range (present or not).
func compareDigraph(t *testing.T, step int, g *Digraph, o *oracleDigraph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("step %d: Validate: %v", step, err)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("step %d: oracle Validate: %v", step, err)
	}
	if g.NumNodes() != o.NumNodes() {
		mismatch(t, step, "NumNodes", g.NumNodes(), o.NumNodes())
	}
	if g.NumEdges() != o.NumEdges() {
		mismatch(t, step, "NumEdges", g.NumEdges(), o.NumEdges())
	}
	if got, want := g.Edges(), o.Edges(); !slices.Equal(got, want) {
		mismatch(t, step, "Edges", got, want)
	}
	if got, want := g.ids(g.Slots()), o.Nodes(); !slices.Equal(got, want) {
		mismatch(t, step, "Slots owners", got, want)
	}
	var seen []NodeID
	collect := func(v NodeID) { seen = append(seen, v) }
	for u := NodeID(0); u <= fuzzIDs; u++ {
		if g.HasNode(u) != o.HasNode(u) {
			mismatch(t, step, fmt.Sprintf("HasNode(%d)", u), g.HasNode(u), o.HasNode(u))
		}
		outs, ins := o.OutNeighbors(u), o.InNeighbors(u)
		if got := g.OutNeighbors(u); !slices.Equal(got, outs) {
			mismatch(t, step, fmt.Sprintf("OutNeighbors(%d)", u), got, outs)
		}
		if got := g.InNeighbors(u); !slices.Equal(got, ins) {
			mismatch(t, step, fmt.Sprintf("InNeighbors(%d)", u), got, ins)
		}
		if s, ok := g.Slot(u); ok {
			if got := g.ids(g.OutSlots(s)); !slices.Equal(got, outs) {
				mismatch(t, step, fmt.Sprintf("OutSlots(%d) owners", u), got, outs)
			}
			if got := g.ids(g.InSlots(s)); !slices.Equal(got, ins) {
				mismatch(t, step, fmt.Sprintf("InSlots(%d) owners", u), got, ins)
			}
		}
		seen = seen[:0]
		g.ForEachOut(u, collect)
		if !slices.Equal(seen, outs) {
			mismatch(t, step, fmt.Sprintf("ForEachOut(%d) order", u), seen, outs)
		}
		seen = seen[:0]
		g.ForEachIn(u, collect)
		if !slices.Equal(seen, ins) {
			mismatch(t, step, fmt.Sprintf("ForEachIn(%d) order", u), seen, ins)
		}
		if g.OutDegree(u) != o.OutDegree(u) || g.InDegree(u) != o.InDegree(u) {
			mismatch(t, step, fmt.Sprintf("degrees(%d)", u), [2]int{g.OutDegree(u), g.InDegree(u)}, [2]int{o.OutDegree(u), o.InDegree(u)})
		}
		for v := NodeID(0); v <= fuzzIDs; v++ {
			if g.HasEdge(u, v) != o.HasEdge(u, v) {
				mismatch(t, step, fmt.Sprintf("HasEdge(%d, %d)", u, v), g.HasEdge(u, v), o.HasEdge(u, v))
			}
		}
	}
}

// compareDerived fails t unless g answers the derived whole-graph
// queries like the oracle.
func compareDerived(t *testing.T, step int, g *Digraph, o *oracleDigraph) {
	t.Helper()
	if g.MaxDegree() != o.MaxDegree() {
		mismatch(t, step, "MaxDegree", g.MaxDegree(), o.MaxDegree())
	}
	if got, want := g.Nodes(), o.Nodes(); !slices.Equal(got, want) {
		mismatch(t, step, "Nodes", got, want)
	}
	for u := NodeID(0); u <= fuzzIDs; u++ {
		if got, want := g.UndirectedNeighbors(u), o.UndirectedNeighbors(u); !slices.Equal(got, want) {
			mismatch(t, step, fmt.Sprintf("UndirectedNeighbors(%d)", u), got, want)
		}
		if got, want := g.HopDistances(u), o.HopDistances(u); !maps.Equal(got, want) {
			mismatch(t, step, fmt.Sprintf("HopDistances(%d)", u), got, want)
		}
		if got, want := g.WithinHops(u, 2), o.WithinHops(u, 2); !slices.Equal(got, want) {
			mismatch(t, step, fmt.Sprintf("WithinHops(%d, 2)", u), got, want)
		}
	}
}
