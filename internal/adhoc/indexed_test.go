package adhoc

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestNaiveGridCellIsZero(t *testing.T) {
	if NewScan().gridCell() != 0 {
		t.Fatal("naive network reports a cell size")
	}
}

// TestIndexedMinimalConnectivity: the grid-indexed New() network gives
// the naive scan's verdicts.
func TestIndexedMinimalConnectivity(t *testing.T) {
	rng := xrand.New(4)
	naive := NewScan()
	indexed := New()
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

// BenchmarkJoin500/Naive quantify the grid on a dense network.
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

func BenchmarkJoin500(b *testing.B)      { benchJoins(b, New) }
func BenchmarkJoin500Naive(b *testing.B) { benchJoins(b, NewScan) }

// TestCheckConsistencyRejectsGridDrift: a slot whose grid position
// differs from its configuration, or a left node still filed, fails
// CheckConsistency even though the grid itself is well formed.
func TestCheckConsistencyRejectsGridDrift(t *testing.T) {
	build := func() *Network {
		n := New()
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
