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
	tl := NewTally(Assignment{1: 2, 2: 7, 3: 7})
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
	if NewTally(nil).Max() != None {
		t.Fatal("empty tally max is not None")
	}
}
