package spatial

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// TestGridMoveCrossCellBookkeeping: re-inserting a filed slot moves it,
// which must clean the previous cell. Shuttle nodes across cell
// boundaries repeatedly and assert Len, per-cell contents, and internal
// consistency never drift — a stale-cell leak would show up as a duplicate hit in
// WithinRadius or a Validate count mismatch.
func TestGridMoveCrossCellBookkeeping(t *testing.T) {
	g, err := NewGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	// Positions on both sides of the x=10 cell boundary, plus diagonal.
	spots := []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 5, Y: 15}, {X: 15, Y: 15}, {X: 95, Y: 95}}
	const nodes = 4
	for i := 0; i < nodes; i++ {
		g.Insert(int32(i), spots[i%len(spots)])
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < nodes; i++ {
			p := spots[(round+i)%len(spots)]
			g.Insert(int32(i), p)
			if got, ok := g.Position(int32(i)); !ok || got != p {
				t.Fatalf("round %d: Position(%d) = %v,%v want %v", round, i, got, ok, p)
			}
		}
		if g.Len() != nodes {
			t.Fatalf("round %d: Len = %d, want %d", round, g.Len(), nodes)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Every node must be found exactly once by a radius query around
		// its own position (stale cells would double-report).
		for i := 0; i < nodes; i++ {
			p, _ := g.Position(int32(i))
			hits := 0
			g.ForEachWithinRadius(p, 0.5, func(id int32) {
				if id == int32(i) {
					hits++
				}
			})
			if hits != 1 {
				t.Fatalf("round %d: node %d found %d times at its own position", round, i, hits)
			}
		}
	}
}

// TestGridMoveRemoveRandomized: a random insert/move/remove churn keeps
// the grid consistent with a plain map oracle.
func TestGridMoveRemoveRandomized(t *testing.T) {
	g, err := NewGrid(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	oracle := make(map[int32]geom.Point)
	next := 0
	for step := 0; step < 2000; step++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(oracle) == 0: // insert
			id := int32(next)
			next++
			p := geom.Point{X: rng.Uniform(-50, 50), Y: rng.Uniform(-50, 50)}
			g.Insert(id, p)
			oracle[id] = p
		case k < 8: // move (possibly across many cells, possibly in-cell)
			id := anyKey(rng, oracle)
			p := geom.Point{X: rng.Uniform(-50, 50), Y: rng.Uniform(-50, 50)}
			g.Insert(id, p)
			oracle[id] = p
		default: // remove
			id := anyKey(rng, oracle)
			g.Remove(id)
			delete(oracle, id)
		}
		if g.Len() != len(oracle) {
			t.Fatalf("step %d: Len = %d, oracle %d", step, g.Len(), len(oracle))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Final positions agree with the oracle.
	for id, p := range oracle {
		if got, ok := g.Position(id); !ok || got != p {
			t.Fatalf("node %d: grid %v,%v oracle %v", id, got, ok, p)
		}
	}
	// A full-plane query sees everyone exactly once.
	seen := make(map[int32]int)
	g.ForEachWithinRadius(geom.Point{}, 200, func(id int32) { seen[id]++ })
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("node %d reported %d times", id, c)
		}
	}
	if !reflect.DeepEqual(len(seen), len(oracle)) {
		t.Fatalf("query saw %d nodes, oracle %d", len(seen), len(oracle))
	}
}

func anyKey(rng *xrand.RNG, m map[int32]geom.Point) int32 {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	// Deterministic selection: sort then index.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids[rng.Intn(len(ids))]
}
