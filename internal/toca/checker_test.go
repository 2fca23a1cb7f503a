package toca

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestCheckerMatchesVerify: under random recolor sequences, the
// incremental count always equals len(Verify(...)).
func TestCheckerMatchesVerify(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomDigraph(rng.Uint64(), 4+rng.Intn(12), 40)
		a := make(Assignment)
		for _, id := range g.Nodes() {
			if rng.Bool() {
				a[id] = Color(1 + rng.Intn(4))
			}
		}
		c := NewChecker(g, a)
		if c.Violations() != len(Verify(g, a)) {
			return false
		}
		nodes := g.Nodes()
		for step := 0; step < 60; step++ {
			u := nodes[rng.Intn(len(nodes))]
			c.Recolor(u, Color(rng.Intn(5))) // 0 = None allowed
			if c.Violations() != len(Verify(g, a)) {
				return false
			}
			if c.Valid() != (len(Verify(g, a)) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCheckerRecolorNoop(t *testing.T) {
	g := randomDigraph(3, 6, 12)
	a := Assignment{}
	for _, id := range g.Nodes() {
		a[id] = 1
	}
	c := NewChecker(g, a)
	before := c.Violations()
	c.Recolor(g.Nodes()[0], a[g.Nodes()[0]]) // same color
	if c.Violations() != before {
		t.Fatal("no-op recolor changed the count")
	}
}

func TestCheckerRebuildAfterTopologyChange(t *testing.T) {
	g := graph.New()
	g.AddNode(1)
	g.AddNode(2)
	a := Assignment{1: 1, 2: 1}
	c := NewChecker(g, a)
	if c.Violations() != 0 {
		t.Fatal("disconnected equal colors flagged")
	}
	g.AddEdge(1, 2)
	c.Rebuild()
	if c.Violations() != 1 {
		t.Fatalf("violations = %d after edge insert", c.Violations())
	}
	c.Recolor(2, 2)
	if !c.Valid() {
		t.Fatal("fix not detected")
	}
}

func TestCheckerPanicsOnAbsentNode(t *testing.T) {
	g := graph.New()
	g.AddNode(1)
	c := NewChecker(g, Assignment{})
	defer func() {
		if recover() == nil {
			t.Fatal("recolor of absent node did not panic")
		}
	}()
	c.Recolor(99, 1)
}

// TestCheckerHiddenPairAccounting: the CA2 triple accounting matches
// Verify on the canonical star.
func TestCheckerHiddenPairAccounting(t *testing.T) {
	g := starGraph(4) // 1..4 -> 0
	a := Assignment{0: 9, 1: 1, 2: 1, 3: 1, 4: 2}
	c := NewChecker(g, a)
	// Pairs (1,2),(1,3),(2,3) = 3 violations.
	if c.Violations() != 3 {
		t.Fatalf("violations = %d, want 3", c.Violations())
	}
	c.Recolor(3, 2)
	// Now (1,2) and (3,4): 2 violations.
	if c.Violations() != 2 {
		t.Fatalf("violations = %d, want 2", c.Violations())
	}
	c.Recolor(3, 3)
	c.Recolor(2, 4)
	// (1,?) none; 4 holds 2, 2 holds 4, 3 holds 3: 0 violations... but
	// 2 holds 4 and 4 holds 2 — distinct. Check zero.
	if c.Violations() != 0 {
		t.Fatalf("violations = %d, want 0", c.Violations())
	}
}

// Valid reports whether the assignment currently satisfies CA1/CA2.
func (c *Checker) Valid() bool { return c.count == 0 }
