package adhoc

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestAutoGridDefault: New() self-indexes — the grid appears with the
// first positive range, its cell tracks the monotone max range, and the
// network stays equivalent to the scan oracle throughout.
func TestAutoGridDefault(t *testing.T) {
	n := New()
	if n.Indexed() {
		t.Fatal("empty network already has a grid")
	}
	if err := n.Join(1, Config{Pos: geom.Point{X: 5, Y: 5}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	if !n.Indexed() {
		t.Fatal("grid not built after first positive range")
	}
	if got := n.gridCell(); got != 10 {
		t.Fatalf("cell = %g, want 10 (the max range)", got)
	}
	// A range within the grow factor keeps the cell.
	if err := n.Join(2, Config{Pos: geom.Point{X: 20, Y: 5}, Range: 15}); err != nil {
		t.Fatal(err)
	}
	if got := n.gridCell(); got != 10 {
		t.Fatalf("cell = %g after range 15, want 10 (within grow factor)", got)
	}
	// Outgrowing the factor rebuilds with cell = maxRange.
	if err := n.Join(3, Config{Pos: geom.Point{X: 40, Y: 40}, Range: 35}); err != nil {
		t.Fatal(err)
	}
	if got := n.gridCell(); got != 35 {
		t.Fatalf("cell = %g after range 35, want 35 (regrid)", got)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoGridZeroRanges: all-zero ranges never build a grid (cell must
// be positive) and the network still works via the scan path.
func TestAutoGridZeroRanges(t *testing.T) {
	n := New()
	for i := 0; i < 5; i++ {
		if err := n.Join(graph.NodeID(i), Config{Pos: geom.Point{X: float64(i), Y: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if n.Indexed() {
		t.Fatal("grid built from zero ranges")
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoGridEquivalence: the default self-indexing network matches the
// scan oracle on a random mixed event script, including after regrids.
func TestAutoGridEquivalence(t *testing.T) {
	rng := xrand.New(77)
	auto, scan := New(), NewScan()
	next := 0
	var present []graph.NodeID
	for step := 0; step < 300; step++ {
		switch k := rng.Intn(8); {
		case k < 3 || len(present) == 0:
			cfg := Config{
				Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
				Range: rng.Uniform(0, 50), // wide spread forces regrids
			}
			id := graph.NodeID(next)
			next++
			if auto.Join(id, cfg) != nil || scan.Join(id, cfg) != nil {
				t.Fatal("join failed")
			}
			present = append(present, id)
		case k < 5:
			id := present[rng.Intn(len(present))]
			pos := geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}
			if moved(auto.Move(id, pos)) != nil || moved(scan.Move(id, pos)) != nil {
				t.Fatal("move failed")
			}
		case k < 7:
			id := present[rng.Intn(len(present))]
			r := rng.Uniform(0, 60)
			if auto.SetRange(id, r) != nil || scan.SetRange(id, r) != nil {
				t.Fatal("setrange failed")
			}
		default:
			i := rng.Intn(len(present))
			id := present[i]
			present = append(present[:i], present[i+1:]...)
			if auto.Leave(id) != nil || scan.Leave(id) != nil {
				t.Fatal("leave failed")
			}
		}
		if !reflect.DeepEqual(auto.Graph().Edges(), scan.Graph().Edges()) {
			t.Fatalf("step %d: auto and scan digraphs diverge", step)
		}
	}
	if err := auto.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !auto.Indexed() {
		t.Fatal("auto network never built its grid")
	}
	// Partition equivalence for hypothetical joins, 4n included.
	for trial := 0; trial < 20; trial++ {
		cfg := Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(1, 45),
		}
		if pa, ps := auto.PartitionFor(999, cfg), scan.PartitionFor(999, cfg); !reflect.DeepEqual(pa, ps) {
			t.Fatalf("trial %d: partition %+v, scan %+v", trial, pa, ps)
		}
	}
}

// TestAutoGridClone: clones of auto-indexed networks stay auto-indexed
// and carry the grid at the source's cell size.
func TestAutoGridClone(t *testing.T) {
	n := New()
	if err := n.Join(1, Config{Pos: geom.Point{X: 5, Y: 5}, Range: 12}); err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	if !c.Indexed() || !c.autoGrid {
		t.Fatal("clone lost auto-indexing")
	}
	if c.gridCell() != n.gridCell() {
		t.Fatalf("clone cell = %g, source %g", c.gridCell(), n.gridCell())
	}
	if err := c.Join(2, Config{Pos: geom.Point{X: 8, Y: 5}, Range: 12}); err != nil {
		t.Fatal(err)
	}
	if !c.Graph().HasEdge(1, 2) {
		t.Fatal("clone missed an edge")
	}
	if n.Has(2) {
		t.Fatal("clone mutation leaked into the original")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Scan networks clone to scan networks.
	if NewScan().Clone().Indexed() {
		t.Fatal("scan clone grew a grid")
	}
}

// TestNonFiniteRangeRejected: NaN/Inf ranges must be rejected at the
// event boundary — a NaN reaching noteRange once poisoned the monotone
// maxRange bound (NaN comparisons made it overwritable), after which
// the grid queried too small a radius and dropped induced edges.
func TestNonFiniteRangeRejected(t *testing.T) {
	n := New()
	if err := n.Join(1, Config{Pos: geom.Point{X: 0, Y: 0}, Range: 50}); err != nil {
		t.Fatal(err)
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	for _, r := range bad {
		if err := n.Join(2, Config{Pos: geom.Point{X: 1, Y: 1}, Range: r}); err == nil {
			t.Fatalf("Join accepted range %g", r)
		}
		if err := n.SetRange(1, r); err == nil {
			t.Fatalf("SetRange accepted range %g", r)
		}
	}
	// The monotone bound survives the rejected attempts: a later join at
	// distance 40 must still be covered by node 1's range-50 query.
	if err := n.Join(3, Config{Pos: geom.Point{X: 40, Y: 0}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	if !n.Graph().HasEdge(1, 3) {
		t.Fatal("induced edge 1->3 missing: maxRange bound was corrupted")
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestNonFinitePositionRejected: a join at a non-finite position and a
// move to one are refused before anything is mutated, on both the grid
// and the scan backend, and the network stays consistent.
func TestNonFinitePositionRejected(t *testing.T) {
	bad := []geom.Point{
		{X: math.NaN(), Y: 10},
		{X: 10, Y: math.NaN()},
		{X: math.Inf(1), Y: 0},
		{X: 0, Y: math.Inf(-1)},
	}
	for _, mk := range []func() *Network{New, NewScan} {
		n := mk()
		if err := n.Join(1, Config{Pos: geom.Point{X: 0, Y: 0}, Range: 20}); err != nil {
			t.Fatal(err)
		}
		for _, p := range bad {
			if err := n.Join(99, Config{Pos: p, Range: 10}); err == nil {
				t.Fatalf("Join accepted position %v", p)
			}
			if _, err := n.Move(1, p); err == nil {
				t.Fatalf("Move accepted position %v", p)
			}
		}
		if n.Has(99) || n.Size() != 1 {
			t.Fatalf("rejected join left %d nodes", n.Size())
		}
		if cfg, _ := n.Config(1); cfg.Pos != (geom.Point{}) {
			t.Fatalf("rejected move left node 1 at %v", cfg.Pos)
		}
		if err := n.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}
