package spatial

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestNewGridRejectsBadCell(t *testing.T) {
	for _, c := range []float64{0, -1} {
		if _, err := NewGrid(c); err == nil {
			t.Fatalf("NewGrid(%g) did not error", c)
		}
	}
	if _, err := NewGrid(10); err != nil {
		t.Fatal(err)
	}
}

func TestInsertQueryRemove(t *testing.T) {
	g, err := NewGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(1, geom.Point{X: 5, Y: 5})
	g.Insert(2, geom.Point{X: 8, Y: 5})
	g.Insert(3, geom.Point{X: 50, Y: 50})
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	got := g.WithinRadius(geom.Point{X: 5, Y: 5}, 5, -1)
	if !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Fatalf("WithinRadius = %v", got)
	}
	// Exclusion.
	got = g.WithinRadius(geom.Point{X: 5, Y: 5}, 5, 1)
	if !reflect.DeepEqual(got, []graph.NodeID{2}) {
		t.Fatalf("WithinRadius excl = %v", got)
	}
	g.Remove(2)
	g.Remove(2) // no-op
	got = g.WithinRadius(geom.Point{X: 5, Y: 5}, 5, -1)
	if !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Fatalf("after remove = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveAcrossCells(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(1, geom.Point{X: 5, Y: 5})
	g.Move(1, geom.Point{X: 95, Y: 95})
	if got := g.WithinRadius(geom.Point{X: 5, Y: 5}, 8, -1); len(got) != 0 {
		t.Fatalf("stale position: %v", got)
	}
	if got := g.WithinRadius(geom.Point{X: 95, Y: 95}, 1, -1); !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Fatalf("new position missing: %v", got)
	}
	if p, ok := g.Position(1); !ok || p != (geom.Point{X: 95, Y: 95}) {
		t.Fatalf("Position = %v %v", p, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundaryInclusive(t *testing.T) {
	g, _ := NewGrid(7)
	g.Insert(1, geom.Point{X: 0, Y: 0})
	g.Insert(2, geom.Point{X: 3, Y: 4}) // distance exactly 5
	got := g.WithinRadius(geom.Point{X: 0, Y: 0}, 5, -1)
	if !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Fatalf("boundary point excluded: %v", got)
	}
}

func TestNegativeCoordinates(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(1, geom.Point{X: -15, Y: -15})
	g.Insert(2, geom.Point{X: -18, Y: -15})
	got := g.WithinRadius(geom.Point{X: -15, Y: -15}, 5, -1)
	if !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Fatalf("negative coords: %v", got)
	}
}

func TestNegativeRadius(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(1, geom.Point{X: 0, Y: 0})
	if got := g.WithinRadius(geom.Point{X: 0, Y: 0}, -1, -1); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

// TestMatchesNaiveScan: the grid returns exactly the naive O(n) scan's
// answer for random configurations, radii, and cell sizes.
func TestMatchesNaiveScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		cell := rng.Uniform(2, 40)
		g, err := NewGrid(cell)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(60)
		pts := make(map[graph.NodeID]geom.Point, n)
		for i := 0; i < n; i++ {
			p := geom.Point{X: rng.Uniform(-50, 150), Y: rng.Uniform(-50, 150)}
			pts[graph.NodeID(i)] = p
			g.Insert(graph.NodeID(i), p)
		}
		// A few random moves and removals.
		for k := 0; k < n/3; k++ {
			id := graph.NodeID(rng.Intn(n))
			if rng.Bool() {
				p := geom.Point{X: rng.Uniform(-50, 150), Y: rng.Uniform(-50, 150)}
				pts[id] = p
				g.Move(id, p)
			} else {
				delete(pts, id)
				g.Remove(id)
			}
		}
		if g.Validate() != nil {
			return false
		}
		for q := 0; q < 10; q++ {
			center := geom.Point{X: rng.Uniform(-50, 150), Y: rng.Uniform(-50, 150)}
			r := rng.Uniform(0, 60)
			var want []graph.NodeID
			for id, p := range pts {
				if center.DistanceSqTo(p) <= r*r {
					want = append(want, id)
				}
			}
			got := g.WithinRadius(center, r, -1)
			if len(got) != len(want) {
				return false
			}
			wantSet := make(map[graph.NodeID]bool, len(want))
			for _, id := range want {
				wantSet[id] = true
			}
			for _, id := range got {
				if !wantSet[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCandidatePruning: the radius filter returns a subset of the cell
// candidates.
func TestCandidatePruning(t *testing.T) {
	rng := xrand.New(42)
	g, _ := NewGrid(10)
	for i := 0; i < 200; i++ {
		g.Insert(graph.NodeID(i), geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)})
	}
	center := geom.Point{X: 50, Y: 50}
	hits := len(g.WithinRadius(center, 15, -1))
	candidates := g.CandidatesNear(center, 15)
	if hits > candidates {
		t.Fatalf("hits %d > candidates %d", hits, candidates)
	}
	if candidates >= 200 {
		t.Fatalf("grid did not prune at all: %d candidates of 200", candidates)
	}
}

// WithinRadius returns all nodes (other than exclude) whose position lies
// within distance r of p, in ascending ID order. Pass exclude = -1 (or
// any unused ID) to exclude nobody.
func (g *Grid) WithinRadius(p geom.Point, r float64, exclude graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	g.ForEachWithinRadius(p, r, func(id graph.NodeID, q geom.Point) {
		if id != exclude {
			out = append(out, id)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CandidatesNear returns all nodes in the cells overlapping the square of
// half-width r around p — the superset the radius filter prunes. Exposed
// for tests and diagnostics.
func (g *Grid) CandidatesNear(p geom.Point, r float64) int {
	count := 0
	lo := g.key(geom.Point{X: p.X - r, Y: p.Y - r})
	hi := g.key(geom.Point{X: p.X + r, Y: p.Y + r})
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			count += len(g.cells[[2]int{cx, cy}])
		}
	}
	return count
}
