package adhoc

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// conflictOracle recomputes the conflict index from the digraph alone:
// for every present node u and every v in toca.ConflictNeighbors(g, u),
// the count [u->v] + [v->u] + |out(u) ∩ out(v)|. Nodes without conflicts
// have no row.
func conflictOracle(g *graph.Digraph) map[graph.NodeID]map[graph.NodeID]int32 {
	want := make(map[graph.NodeID]map[graph.NodeID]int32)
	for _, u := range g.Nodes() {
		for v := range toca.ConflictNeighbors(g, u) {
			c := int32(0)
			if g.HasEdge(u, v) {
				c++
			}
			if g.HasEdge(v, u) {
				c++
			}
			for _, w := range g.OutNeighbors(u) {
				if g.HasEdge(v, w) {
					c++
				}
			}
			if want[u] == nil {
				want[u] = make(map[graph.NodeID]int32)
			}
			want[u][v] = c
		}
	}
	return want
}

// checkConflictIndex compares n's built conflict index with the oracle,
// and checks that no row holds a zero entry and no absent node has a row.
func checkConflictIndex(t *testing.T, step int, name string, n *Network) {
	t.Helper()
	g := n.Graph()
	live := func(s int32) bool {
		got, ok := g.Slot(g.Owner(s))
		return ok && got == s
	}
	got := make(map[graph.NodeID]map[graph.NodeID]int32)
	for su, row := range n.conf {
		if len(row) == 0 {
			continue
		}
		u := g.Owner(int32(su))
		if !live(int32(su)) {
			t.Fatalf("step %d, %s: row for free slot %d", step, name, su)
		}
		got[u] = make(map[graph.NodeID]int32, len(row))
		for i, e := range row {
			if e.n == 0 || !live(e.slot) || (i > 0 && row[i-1].slot >= e.slot) {
				t.Fatalf("step %d, %s: row %d entry %d is zero, free or out of order: %v", step, name, u, i, row)
			}
			got[u][g.Owner(e.slot)] = e.n
		}
	}
	if want := conflictOracle(n.Graph()); !reflect.DeepEqual(got, want) {
		for _, u := range n.Nodes() {
			if !reflect.DeepEqual(got[u], want[u]) {
				t.Fatalf("step %d, %s: row %d = %v, want %v", step, name, u, got[u], want[u])
			}
		}
		t.Fatalf("step %d, %s: index differs from the oracle", step, name)
	}
}

// TestConflictIndexDifferential drives seeded mixed scripts — joins,
// leaves (the highest-degree node among them), cross-cell moves, range
// raises, decreases and drops to 0 — through networks whose conflict
// index was built at the start, built mid-script, and built on a
// mid-script Clone, and checks every index against a from-scratch
// recount after every event, on both the grid and the scan path.
func TestConflictIndexDifferential(t *testing.T) {
	const steps, arena = 240, 60.0
	for _, mk := range []struct {
		name string
		new  func() *Network
	}{{"grid", New}, {"scan", NewScan}} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := xrand.New(seed)
			early, late := mk.new(), mk.new()
			early.ConflictGraph()
			var clone *Network
			next := graph.NodeID(0)
			point := func() geom.Point {
				return geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)}
			}
			for step := 0; step < steps; step++ {
				present := early.Nodes()
				var ev func(n *Network) error
				switch k := rng.Intn(10); {
				case k < 3 || len(present) < 3:
					id, cfg := next, Config{Pos: point(), Range: rng.Uniform(5, 25)}
					next++
					ev = func(n *Network) error { return n.Join(id, cfg) }
				case k == 3:
					id := present[rng.Intn(len(present))]
					if step%2 == 0 {
						g := early.Graph()
						for _, u := range present {
							if len(g.InNeighbors(u))+len(g.OutNeighbors(u)) > len(g.InNeighbors(id))+len(g.OutNeighbors(id)) {
								id = u
							}
						}
					}
					ev = func(n *Network) error { return n.Leave(id) }
				case k < 6:
					// Far moves cross grid cells (the cell is at most the
					// largest range, 37.5, on a 60-wide arena).
					id, pos := present[rng.Intn(len(present))], point()
					ev = func(n *Network) error { return n.Move(id, pos) }
				default:
					id := present[rng.Intn(len(present))]
					cfg, _ := early.Config(id)
					r := 0.0 // k == 9: silence the node
					switch k {
					case 6, 7:
						r = cfg.Range*1.5 + 2
					case 8:
						r = cfg.Range / 2
					}
					ev = func(n *Network) error { return n.SetRange(id, r) }
				}
				for _, n := range []*Network{early, late, clone} {
					if n != nil {
						if err := ev(n); err != nil {
							t.Fatalf("%s seed %d step %d: %v", mk.name, seed, step, err)
						}
					}
				}
				switch step {
				case steps / 3:
					late.ConflictGraph()
				case steps / 2:
					clone = early.Clone()
					if clone.conf != nil {
						t.Fatal("Clone copied the conflict index")
					}
					clone.ConflictGraph()
				}
				checkConflictIndex(t, step, mk.name+"/early", early)
				if late.conf != nil {
					checkConflictIndex(t, step, mk.name+"/late", late)
				}
				if clone != nil {
					checkConflictIndex(t, step, mk.name+"/clone", clone)
				}
			}
		}
	}
}

// TestConflictViewMatchesConflictGraph: the view ConflictGraph returns
// lists every node and, per node, exactly toca.ConflictGraph's
// neighbors.
func TestConflictViewMatchesConflictGraph(t *testing.T) {
	rng := xrand.New(7)
	n := New()
	for i := 0; i < 60; i++ {
		cfg := Config{Pos: geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}, Range: rng.Uniform(0, 30)}
		if err := n.Join(graph.NodeID(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []graph.NodeID{3, 50, 17} { // free slots out of ID order
		if err := n.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 60; i < 63; i++ {
		cfg := Config{Pos: geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}, Range: rng.Uniform(0, 30)}
		if err := n.Join(graph.NodeID(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	view := n.ConflictGraph()
	want := toca.ConflictGraph(n.Graph())
	var ids []graph.NodeID
	for _, s := range view.Slots() {
		ids = append(ids, view.ID(s))
	}
	if !reflect.DeepEqual(ids, n.Nodes()) || len(want) != len(ids) {
		t.Fatalf("view nodes %v, want %v", ids, n.Nodes())
	}
	for _, s := range view.Slots() {
		u := view.ID(s)
		got := map[graph.NodeID]bool{}
		view.ForEachNeighbor(s, func(v int32) { got[view.ID(v)] = true })
		if view.Degree(s) != len(want[u]) || len(got) != len(want[u]) {
			t.Fatalf("node %d: degree %d, visited %d, want %d", u, view.Degree(s), len(got), len(want[u]))
		}
		for _, v := range want[u] {
			if !got[v] {
				t.Fatalf("node %d: neighbor %d missing from the view", u, v)
			}
		}
	}
}
