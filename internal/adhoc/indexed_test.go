package adhoc

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestIndexedEquivalence: the grid-backed network produces the identical
// graph, partitions, and consistency state as the naive one under a
// random event stream — the grid is a pure accelerator.
func TestIndexedEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		naive := NewScan()
		indexed := NewIndexed(rng.Uniform(5, 35))
		next := 0
		var present []graph.NodeID
		for step := 0; step < 120; step++ {
			switch k := rng.Intn(8); {
			case k < 3 || len(present) == 0: // join
				cfg := Config{
					Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
					Range: rng.Uniform(1, 45),
				}
				id := graph.NodeID(next)
				next++
				if naive.Join(id, cfg) != nil || indexed.Join(id, cfg) != nil {
					return false
				}
				present = append(present, id)
			case k < 5: // move
				id := present[rng.Intn(len(present))]
				pos := geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}
				if moved(naive.Move(id, pos)) != nil || moved(indexed.Move(id, pos)) != nil {
					return false
				}
			case k < 7: // range change
				id := present[rng.Intn(len(present))]
				r := rng.Uniform(0, 50)
				if naive.SetRange(id, r) != nil || indexed.SetRange(id, r) != nil {
					return false
				}
			default: // leave
				i := rng.Intn(len(present))
				id := present[i]
				present = append(present[:i], present[i+1:]...)
				if naive.Leave(id) != nil || indexed.Leave(id) != nil {
					return false
				}
			}
			if !reflect.DeepEqual(naive.Graph().Edges(), indexed.Graph().Edges()) {
				return false
			}
		}
		// Partition equivalence for a hypothetical join.
		cfg := Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(1, 45),
		}
		pn := naive.PartitionFor(999, cfg)
		pi := indexed.PartitionFor(999, cfg)
		if !reflect.DeepEqual(pn, pi) {
			return false
		}
		return indexed.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIndexedCloneKeepsIndex(t *testing.T) {
	n := NewIndexed(20)
	if err := n.Join(1, Config{Pos: geom.Point{X: 5, Y: 5}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	if c.grid == nil {
		t.Fatal("clone lost the spatial index")
	}
	if c.gridCell() != 20 {
		t.Fatalf("clone cell = %g", c.gridCell())
	}
	if err := c.Join(2, Config{Pos: geom.Point{X: 8, Y: 5}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	if !c.Graph().HasEdge(1, 2) || !c.Graph().HasEdge(2, 1) {
		t.Fatal("cloned indexed network missed edges")
	}
	if n.Has(2) {
		t.Fatal("clone mutation leaked")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNewIndexedPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad cell size did not panic")
		}
	}()
	NewIndexed(0)
}

func TestNaiveGridCellIsZero(t *testing.T) {
	if NewScan().gridCell() != 0 {
		t.Fatal("naive network reports a cell size")
	}
}

// TestIndexedMinimalConnectivity matches the naive result.
func TestIndexedMinimalConnectivity(t *testing.T) {
	rng := xrand.New(4)
	naive := NewScan()
	indexed := NewIndexed(25)
	for i := 0; i < 30; i++ {
		cfg := Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(5, 30),
		}
		if err := naive.Join(graph.NodeID(i), cfg); err != nil {
			t.Fatal(err)
		}
		if err := indexed.Join(graph.NodeID(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 50; trial++ {
		cfg := Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(0, 30),
		}
		if naive.MinimalConnectivityOK(99, cfg) != indexed.MinimalConnectivityOK(99, cfg) {
			t.Fatalf("trial %d: connectivity verdicts differ", trial)
		}
	}
}

// BenchmarkJoinNaive/Indexed quantify the accelerator on a dense network.
func benchJoins(b *testing.B, mk func() *Network) {
	rng := xrand.New(77)
	cfgs := make([]Config, 500)
	for i := range cfgs {
		cfgs[i] = Config{
			Pos:   geom.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)},
			Range: rng.Uniform(20.5, 30.5),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := mk()
		for j, cfg := range cfgs {
			if err := n.Join(graph.NodeID(j), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkJoin500Naive(b *testing.B) { benchJoins(b, New) }
func BenchmarkJoin500Indexed(b *testing.B) {
	benchJoins(b, func() *Network { return NewIndexed(30.5) })
}

// TestCheckConsistencyRejectsGridDrift: a slot whose grid position
// differs from its configuration, or a left node still filed, fails
// CheckConsistency even though the grid itself is well formed.
func TestCheckConsistencyRejectsGridDrift(t *testing.T) {
	build := func() *Network {
		n := NewIndexed(10)
		for i := 0; i < 3; i++ {
			if err := n.Join(graph.NodeID(i), Config{Pos: geom.Point{X: float64(4 * i), Y: 1}, Range: 5}); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	n := build()
	s, _ := n.g.Slot(1)
	n.grid.Insert(s, geom.Point{X: 4, Y: 2})
	if n.grid.Validate() != nil || n.CheckConsistency() == nil {
		t.Fatal("CheckConsistency accepted a grid position that differs from the config")
	}
	n = build()
	s, _ = n.g.Slot(2)
	if err := n.Leave(2); err != nil {
		t.Fatal(err)
	}
	n.grid.Insert(s, n.cfgs[s].Pos)
	if n.grid.Validate() != nil || n.CheckConsistency() == nil {
		t.Fatal("CheckConsistency accepted a free slot still filed in the grid")
	}
}
