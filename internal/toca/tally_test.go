package toca

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestTallyMatchesRescan: after every random write (raises, lowers,
// removals, no-op rewrites) the tally's max equals a rescan of its map,
// starting from an adopted non-empty assignment.
func TestTallyMatchesRescan(t *testing.T) {
	rng := xrand.New(5)
	g := graph.New()
	for id := graph.NodeID(0); id < 20; id++ {
		g.AddNode(id)
	}
	tl := NewTally(g, Assignment{1: 2, 2: 7, 3: 7})
	if tl.Max() != 7 {
		t.Fatalf("adopted max %d, want 7", tl.Max())
	}
	for step := 0; step < 2000; step++ {
		id := graph.NodeID(rng.Intn(20))
		c := Color(rng.Intn(12)) // 0 is None: a removal
		tl.Set(id, c)
		if got, want := tl.Max(), tl.Assignment().MaxColor(); got != want {
			t.Fatalf("step %d: Set(%d, %d): max %d, rescan %d", step, id, c, got, want)
		}
		if _, stored := tl.Assignment()[id]; stored != (c != None) {
			t.Fatalf("step %d: Set(%d, %d) stored=%v", step, id, c, stored)
		}
	}
	if NewTally(graph.New(), nil).Max() != None {
		t.Fatal("empty tally max is not None")
	}
}

// tallyIDs bounds the node IDs FuzzTallySlots draws from, so leaves and
// rejoins recycle a handful of slots.
const tallyIDs = 10

// FuzzTallySlots decodes bytes into join, leave, Set and Lift steps
// (two bytes each: operation, node) on a digraph and a tally over it.
// A leave removes the node from the digraph before clearing its color,
// in the strategies' order, so its slot's cache entry is stale when the
// next joiner takes the slot. After every step, every live node's slot
// color must equal the map (or None while lifted), a rejoined node must
// read None until written, and Max must equal a rescan of the map.
func FuzzTallySlots(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 0, 2, 1, 1, 0, 2, 0, 1})
	f.Add([]byte{0, 1, 0, 2, 2, 1, 2, 2, 1, 1, 0, 3, 3, 3, 2, 3, 1, 2, 0, 4})
	f.Add([]byte{0, 5, 2, 5, 4, 5, 1, 5, 0, 6, 2, 6, 1, 6, 0, 5})
	f.Add([]byte{0, 1, 27, 1, 1, 1, 0, 2}) // color 3, leave, a new joiner takes the slot
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := graph.New()
		tl := NewTally(g, nil)
		lifted := make(map[graph.NodeID]bool)
		for step := 0; len(ops) >= 2; step, ops = step+1, ops[2:] {
			id := graph.NodeID(ops[1] % tallyIDs)
			c := Color(ops[0]>>3) % 9 // None..8
			switch ops[0] % 5 {
			case 0: // join, wired to every live node
				if g.HasNode(id) {
					continue
				}
				others := g.Nodes()
				g.AddNode(id)
				for _, v := range others {
					addEdge(g, id, v)
					addEdge(g, v, id)
				}
				s, _ := g.Slot(id)
				if got := tl.at(s); got != None {
					t.Fatalf("step %d: joiner %d reads %d in slot %d before any write", step, id, got, s)
				}
			case 1: // leave
				if !g.HasNode(id) {
					continue
				}
				g.RemoveNode(id)
				tl.Set(id, None)
				delete(lifted, id)
			case 2, 3: // write (None included)
				if !g.HasNode(id) {
					continue
				}
				tl.Set(id, c)
				delete(lifted, id)
			case 4:
				tl.Lift([]graph.NodeID{id})
				if g.HasNode(id) {
					lifted[id] = true
				}
			}
			a := tl.Assignment()
			for _, u := range g.Nodes() {
				s, _ := g.Slot(u)
				want := a[u]
				if lifted[u] {
					want = None
				}
				if got := tl.at(s); got != want {
					t.Fatalf("step %d: node %d slot %d reads %d, want %d", step, u, s, got, want)
				}
			}
			for u := range a {
				if !g.HasNode(u) {
					t.Fatalf("step %d: departed node %d still colored", step, u)
				}
			}
			if got, want := tl.Max(), a.MaxColor(); got != want {
				t.Fatalf("step %d: Max %d, rescan %d", step, got, want)
			}
		}
	})
}
