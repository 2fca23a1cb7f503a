package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// AddEdge inserts the directed edge u -> v. Both endpoints must already
// exist and u must differ from v; violations panic because they indicate
// a bug in the network-maintenance layer, not a runtime condition.
func (g *Digraph) AddEdge(u, v NodeID) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	su, ok := g.slots[u]
	if !ok {
		panic(fmt.Sprintf("graph: AddEdge tail %d not in graph", u))
	}
	sv, ok := g.slots[v]
	if !ok {
		panic(fmt.Sprintf("graph: AddEdge head %d not in graph", v))
	}
	g.AddSlotEdge(su, sv)
}

// RemoveEdge deletes the directed edge u -> v if present.
func (g *Digraph) RemoveEdge(u, v NodeID) {
	su, ok := g.slots[u]
	if !ok {
		return
	}
	if sv, ok := g.slots[v]; ok {
		g.RemoveSlotEdge(su, sv)
	}
}

func TestAddRemoveNode(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(2)
	g.AddNode(1) // duplicate no-op
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	if !g.HasNode(1) || !g.HasNode(2) || g.HasNode(3) {
		t.Fatal("HasNode wrong")
	}
	g.RemoveNode(1)
	g.RemoveNode(1) // missing no-op
	if g.NumNodes() != 1 || g.HasNode(1) {
		t.Fatal("RemoveNode failed")
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(2)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate no-op
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("directedness broken")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	g.RemoveEdge(1, 2)
	g.RemoveEdge(1, 2) // missing no-op
	if g.HasEdge(1, 2) || g.NumEdges() != 0 {
		t.Fatal("RemoveEdge failed")
	}
}

func TestRemoveNodeRemovesIncidentEdges(t *testing.T) {
	g := New()
	for i := 1; i <= 4; i++ {
		g.AddNode(NodeID(i))
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	g.AddEdge(4, 2)
	g.RemoveNode(2)
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after removing hub, want 0", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := New()
	g.AddNode(1)
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g.AddEdge(1, 1)
}

func TestAddEdgeMissingEndpointPanics(t *testing.T) {
	g := New()
	g.AddNode(1)
	defer func() {
		if recover() == nil {
			t.Fatal("missing endpoint did not panic")
		}
	}()
	g.AddEdge(1, 99)
}

func TestNeighborsSorted(t *testing.T) {
	g := New()
	for _, id := range []NodeID{5, 3, 9, 1, 7} {
		g.AddNode(id)
	}
	for _, id := range []NodeID{9, 3, 7} {
		g.AddEdge(5, id)
		g.AddEdge(id, 5)
	}
	wantOut := []NodeID{3, 7, 9}
	if got := g.OutNeighbors(5); !reflect.DeepEqual(got, wantOut) {
		t.Fatalf("OutNeighbors = %v, want %v", got, wantOut)
	}
	if got := g.InNeighbors(5); !reflect.DeepEqual(got, wantOut) {
		t.Fatalf("InNeighbors = %v, want %v", got, wantOut)
	}
	if got := g.Nodes(); !reflect.DeepEqual(got, []NodeID{1, 3, 5, 7, 9}) {
		t.Fatalf("Nodes = %v", got)
	}
}

func TestDegrees(t *testing.T) {
	g := New()
	for i := 1; i <= 3; i++ {
		g.AddNode(NodeID(i))
	}
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 1)
	if g.OutDegree(1) != 2 || g.InDegree(1) != 1 {
		t.Fatalf("degrees of 1: out=%d in=%d", g.OutDegree(1), g.InDegree(1))
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestEdgesListing(t *testing.T) {
	g := New()
	for i := 1; i <= 3; i++ {
		g.AddNode(NodeID(i))
	}
	g.AddEdge(2, 1)
	g.AddEdge(1, 3)
	g.AddEdge(1, 2)
	want := [][2]NodeID{{1, 2}, {1, 3}, {2, 1}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(2)
	g.AddEdge(1, 2)
	c := g.Clone()
	c.AddNode(3)
	c.AddEdge(2, 1)
	if g.HasNode(3) || g.HasEdge(2, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.HasEdge(1, 2) {
		t.Fatal("clone lost edge")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedNeighbors(t *testing.T) {
	g := New()
	for i := 1; i <= 4; i++ {
		g.AddNode(NodeID(i))
	}
	g.AddEdge(1, 2) // out only
	g.AddEdge(3, 1) // in only
	g.AddEdge(1, 4)
	g.AddEdge(4, 1) // both
	want := []NodeID{2, 3, 4}
	if got := g.UndirectedNeighbors(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("UndirectedNeighbors = %v, want %v", got, want)
	}
}

func TestHopDistancesLine(t *testing.T) {
	// 1 -> 2 -> 3 -> 4 directed line; undirected BFS sees the chain.
	g := New()
	for i := 1; i <= 4; i++ {
		g.AddNode(NodeID(i))
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	d := g.HopDistances(1)
	want := map[NodeID]int{1: 0, 2: 1, 3: 2, 4: 3}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("HopDistances = %v, want %v", d, want)
	}
	// From the far end the chain reverses (undirected reachability).
	d = g.HopDistances(4)
	want = map[NodeID]int{4: 0, 3: 1, 2: 2, 1: 3}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("HopDistances(4) = %v, want %v", d, want)
	}
}

func TestHopDistancesDisconnected(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(2)
	d := g.HopDistances(1)
	if len(d) != 1 || d[1] != 0 {
		t.Fatalf("HopDistances = %v", d)
	}
	if d := g.HopDistances(42); len(d) != 0 {
		t.Fatalf("HopDistances of absent node = %v", d)
	}
}

func TestWithinHops(t *testing.T) {
	g := New()
	for i := 1; i <= 5; i++ {
		g.AddNode(NodeID(i))
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	if got := g.WithinHops(1, 2); !reflect.DeepEqual(got, []NodeID{2, 3}) {
		t.Fatalf("WithinHops(1,2) = %v", got)
	}
	if got := g.WithinHops(1, 10); len(got) != 4 {
		t.Fatalf("WithinHops(1,10) = %v", got)
	}
}

func TestForEachCallbacks(t *testing.T) {
	g := New()
	for i := 1; i <= 3; i++ {
		g.AddNode(NodeID(i))
	}
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 1)
	g.AddEdge(3, 1)
	var outs, ins []NodeID
	g.ForEachOut(1, func(v NodeID) { outs = append(outs, v) })
	if !reflect.DeepEqual(outs, []NodeID{2, 3}) {
		t.Fatalf("ForEachOut = %v, want ascending [2 3]", outs)
	}
	g.ForEachIn(1, func(v NodeID) { ins = append(ins, v) })
	if !reflect.DeepEqual(ins, []NodeID{2, 3}) {
		t.Fatalf("ForEachIn = %v, want ascending [2 3]", ins)
	}
}

// TestRandomOpsValidate drives a random operation sequence and checks the
// structure stays internally consistent throughout.
func TestRandomOpsValidate(t *testing.T) {
	rng := xrand.New(202)
	g := New()
	present := []NodeID{}
	for step := 0; step < 3000; step++ {
		switch rng.Intn(5) {
		case 0: // add node
			id := NodeID(rng.Intn(50))
			if !g.HasNode(id) {
				g.AddNode(id)
				present = append(present, id)
			}
		case 1: // remove node
			if len(present) > 0 {
				i := rng.Intn(len(present))
				g.RemoveNode(present[i])
				present = append(present[:i], present[i+1:]...)
			}
		case 2, 3: // add edge
			if len(present) >= 2 {
				u := present[rng.Intn(len(present))]
				v := present[rng.Intn(len(present))]
				if u != v {
					g.AddEdge(u, v)
				}
			}
		case 4: // remove edge
			if len(present) >= 2 {
				u := present[rng.Intn(len(present))]
				v := present[rng.Intn(len(present))]
				g.RemoveEdge(u, v)
			}
		}
		if step%100 == 0 {
			if err := g.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeMirrorProperty: for random graphs, HasEdge(u,v) iff v in
// OutNeighbors(u) iff u in InNeighbors(v).
func TestEdgeMirrorProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := New()
		n := 2 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g.AddNode(NodeID(i))
		}
		for e := 0; e < 3*n; e++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				g.AddEdge(u, v)
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				has := g.HasEdge(NodeID(u), NodeID(v))
				inOut := containsNode(g.OutNeighbors(NodeID(u)), NodeID(v))
				inIn := containsNode(g.InNeighbors(NodeID(v)), NodeID(u))
				if has != inOut || has != inIn {
					return false
				}
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func containsNode(s []NodeID, id NodeID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

// UndirectedNeighbors returns all nodes adjacent to id in either
// direction, ascending and without duplicates. This is the "1-hop
// neighborhood" used by the CP strategy's symmetric view.
func (g *Digraph) UndirectedNeighbors(id NodeID) []NodeID {
	both := append(g.OutNeighbors(id), g.InNeighbors(id)...)
	slices.Sort(both)
	return slices.Compact(both)
}

// MaxDegree returns the maximum of in- and out-degrees over all nodes
// (the parameter k in the paper's complexity analysis).
func (g *Digraph) MaxDegree() int {
	best := 0
	for _, a := range g.adj {
		best = max(best, len(a.out), len(a.in))
	}
	return best
}

// OutDegree returns the number of out-edges of id.
func (g *Digraph) OutDegree(id NodeID) int { return len(g.out(id)) }

// InDegree returns the number of in-edges of id.
func (g *Digraph) InDegree(id NodeID) int { return len(g.in(id)) }
