package spatial

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
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
	if !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("WithinRadius = %v", got)
	}
	// Exclusion.
	got = g.WithinRadius(geom.Point{X: 5, Y: 5}, 5, 1)
	if !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("WithinRadius excl = %v", got)
	}
	g.Remove(2)
	g.Remove(2) // no-op
	got = g.WithinRadius(geom.Point{X: 5, Y: 5}, 5, -1)
	if !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("after remove = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveAcrossCells(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(1, geom.Point{X: 5, Y: 5})
	g.Insert(1, geom.Point{X: 95, Y: 95})
	if got := g.WithinRadius(geom.Point{X: 5, Y: 5}, 8, -1); len(got) != 0 {
		t.Fatalf("stale position: %v", got)
	}
	if got := g.WithinRadius(geom.Point{X: 95, Y: 95}, 1, -1); !reflect.DeepEqual(got, []int32{1}) {
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
	if !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("boundary point excluded: %v", got)
	}
}

func TestNegativeCoordinates(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(1, geom.Point{X: -15, Y: -15})
	g.Insert(2, geom.Point{X: -18, Y: -15})
	got := g.WithinRadius(geom.Point{X: -15, Y: -15}, 5, -1)
	if !reflect.DeepEqual(got, []int32{1, 2}) {
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
		pts := make(map[int32]geom.Point, n)
		for i := 0; i < n; i++ {
			p := geom.Point{X: rng.Uniform(-50, 150), Y: rng.Uniform(-50, 150)}
			pts[int32(i)] = p
			g.Insert(int32(i), p)
		}
		// A few random moves and removals.
		for k := 0; k < n/3; k++ {
			id := int32(rng.Intn(n))
			if rng.Bool() {
				p := geom.Point{X: rng.Uniform(-50, 150), Y: rng.Uniform(-50, 150)}
				pts[id] = p
				g.Insert(id, p)
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
			var want []int32
			for id, p := range pts {
				if center.DistanceSqTo(p) <= r*r {
					want = append(want, id)
				}
			}
			got := g.WithinRadius(center, r, -1)
			if len(got) != len(want) {
				return false
			}
			wantSet := make(map[int32]bool, len(want))
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
		g.Insert(int32(i), geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)})
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

// Len returns the number of filed slots.
func (g *Grid) Len() int {
	n := 0
	for _, l := range g.at {
		if l.c != nil {
			n++
		}
	}
	return n
}

// WithinRadius returns all nodes (other than exclude) whose position lies
// within distance r of p, in ascending ID order. Pass exclude = -1 (or
// any unused ID) to exclude nobody.
func (g *Grid) WithinRadius(p geom.Point, r float64, exclude int32) []int32 {
	var out []int32
	g.ForEachWithinRadius(p, r, func(id int32) {
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
			if c := g.cells[[2]int{cx, cy}]; c != nil {
				count += len(c.ents)
			}
		}
	}
	return count
}

// TestValidateRejectsCorruption: Validate catches each way the cells and
// the per-slot back-pointers can disagree.
func TestValidateRejectsCorruption(t *testing.T) {
	build := func() *Grid {
		g, _ := NewGrid(10)
		g.Insert(0, geom.Point{X: 1, Y: 1})
		g.Insert(1, geom.Point{X: 2, Y: 2})
		g.Insert(2, geom.Point{X: 25, Y: 1})
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*Grid)
	}{
		{"slot filed twice", func(g *Grid) {
			c := g.at[2].c
			c.ents = append(c.ents, entry{slot: 0, pos: geom.Point{X: 26, Y: 1}})
		}},
		{"stale back-pointer", func(g *Grid) { g.at[0].i, g.at[1].i = g.at[1].i, g.at[0].i }},
		{"back-pointer of an unfiled slot", func(g *Grid) { g.at = append(g.at, g.at[2]) }},
		{"entry in the wrong cell", func(g *Grid) { g.at[2].c.ents[0].pos = geom.Point{X: 5, Y: 5} }},
	} {
		g := build()
		tc.corrupt(g)
		if g.Validate() == nil {
			t.Errorf("%s: Validate accepted the corrupted grid", tc.name)
		}
	}
}
