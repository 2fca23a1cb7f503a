package adhoc

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// lineNet builds the canonical asymmetric example: three nodes on a line
// where 1 covers 2, 2 covers 1 and 3, and 3 covers only 2.
func lineNet(t *testing.T) *Network {
	t.Helper()
	n := New()
	must(t, n.Join(1, Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}))
	must(t, n.Join(2, Config{Pos: geom.Point{X: 8, Y: 0}, Range: 12}))
	must(t, n.Join(3, Config{Pos: geom.Point{X: 16, Y: 0}, Range: 9}))
	return n
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinInducesEdges(t *testing.T) {
	n := lineNet(t)
	g := n.Graph()
	type e struct{ u, v graph.NodeID }
	want := map[e]bool{
		{1, 2}: true,  // d=8 <= 10
		{2, 1}: true,  // d=8 <= 12
		{2, 3}: true,  // d=8 <= 12
		{3, 2}: true,  // d=8 <= 9
		{1, 3}: false, // d=16 > 10
		{3, 1}: false, // d=16 > 9
	}
	for ed, w := range want {
		if got := g.HasEdge(ed.u, ed.v); got != w {
			t.Errorf("edge %d->%d = %v, want %v", ed.u, ed.v, got, w)
		}
	}
	must(t, n.CheckConsistency())
}

func TestJoinDuplicate(t *testing.T) {
	n := lineNet(t)
	if err := n.Join(1, Config{}); err == nil {
		t.Fatal("duplicate join did not error")
	}
}

func TestJoinNegativeRange(t *testing.T) {
	n := New()
	if err := n.Join(1, Config{Range: -1}); err == nil {
		t.Fatal("negative range join did not error")
	}
}

func TestLeave(t *testing.T) {
	n := lineNet(t)
	must(t, n.Leave(2))
	if n.Has(2) || n.Size() != 2 {
		t.Fatal("leave failed")
	}
	if n.Graph().NumEdges() != 0 {
		t.Fatalf("edges left: %d", n.Graph().NumEdges())
	}
	if err := n.Leave(2); err == nil {
		t.Fatal("double leave did not error")
	}
	must(t, n.CheckConsistency())
}

func TestMoveRewiresBothDirections(t *testing.T) {
	n := lineNet(t)
	// Move node 3 next to node 1: now 1<->3 connect, 3's link to 2 holds
	// (d=7 <= 9 and 12).
	must(t, n.Move(3, geom.Point{X: 1, Y: 0}))
	g := n.Graph()
	if !g.HasEdge(1, 3) || !g.HasEdge(3, 1) {
		t.Fatal("move did not create edges to new neighbor")
	}
	if !g.HasEdge(3, 2) || !g.HasEdge(2, 3) {
		t.Fatal("move broke surviving link")
	}
	must(t, n.CheckConsistency())
	if err := n.Move(42, geom.Point{}); err == nil {
		t.Fatal("move of absent node did not error")
	}
}

func TestSetRangeOnlyAffectsOwnCoverage(t *testing.T) {
	n := lineNet(t)
	// Grow node 1's range to cover node 3 (d=16).
	must(t, n.SetRange(1, 20))
	g := n.Graph()
	if !g.HasEdge(1, 3) {
		t.Fatal("range increase did not add out-edge")
	}
	if g.HasEdge(3, 1) {
		t.Fatal("range increase of 1 must not add 3->1")
	}
	// Shrink node 1's range below everything.
	must(t, n.SetRange(1, 1))
	if g.HasEdge(1, 2) || g.HasEdge(1, 3) {
		t.Fatal("range decrease did not drop out-edges")
	}
	if !g.HasEdge(2, 1) {
		t.Fatal("range decrease of 1 must keep 2->1")
	}
	must(t, n.CheckConsistency())
	if err := n.SetRange(1, -2); err == nil {
		t.Fatal("negative range did not error")
	}
	if err := n.SetRange(77, 5); err == nil {
		t.Fatal("absent node did not error")
	}
}

func TestConfigCovers(t *testing.T) {
	c := Config{Pos: geom.Point{X: 0, Y: 0}, Range: 5}
	if !c.Covers(geom.Point{X: 3, Y: 4}) { // exactly on the boundary
		t.Fatal("boundary point not covered")
	}
	if c.Covers(geom.Point{X: 3.01, Y: 4}) {
		t.Fatal("outside point covered")
	}
}

func TestPartitionFor(t *testing.T) {
	n := New()
	// Node 10 at origin r=10: candidate n at (5,0) with r=6.
	//  - 10: d=5; 10 covers n (5<=10), n covers 10 (5<=6)      -> Both
	//  - 11 at (9,0) r=2: d=4; n covers 11, 11 doesn't cover n -> Out
	//  - 12 at (5,8) r=20: d=8; 12 covers n, n doesn't (8>6)   -> In
	//  - 13 at (50,50) r=5: neither                            -> None
	must(t, n.Join(10, Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}))
	must(t, n.Join(11, Config{Pos: geom.Point{X: 9, Y: 0}, Range: 2}))
	must(t, n.Join(12, Config{Pos: geom.Point{X: 5, Y: 8}, Range: 20}))
	must(t, n.Join(13, Config{Pos: geom.Point{X: 50, Y: 50}, Range: 5}))

	p := n.PartitionFor(99, Config{Pos: geom.Point{X: 5, Y: 0}, Range: 6})
	if !reflect.DeepEqual(p.Both, []graph.NodeID{10}) {
		t.Errorf("Both = %v, want [10]", p.Both)
	}
	if !reflect.DeepEqual(p.Out, []graph.NodeID{11}) {
		t.Errorf("Out = %v, want [11]", p.Out)
	}
	if !reflect.DeepEqual(p.In, []graph.NodeID{12}) {
		t.Errorf("In = %v, want [12]", p.In)
	}
	if !reflect.DeepEqual(p.None, []graph.NodeID{13}) {
		t.Errorf("None = %v, want [13]", p.None)
	}
	if got := p.InOrBoth(); !reflect.DeepEqual(got, []graph.NodeID{10, 12}) {
		t.Errorf("InOrBoth = %v, want [10 12]", got)
	}
}

func TestPartitionSkipsSelf(t *testing.T) {
	n := lineNet(t)
	cfg, _ := n.Config(2)
	p := n.PartitionFor(2, cfg)
	for _, lst := range [][]graph.NodeID{p.In, p.Both, p.Out, p.None} {
		for _, id := range lst {
			if id == 2 {
				t.Fatal("partition contains the node itself")
			}
		}
	}
	if got := len(p.In) + len(p.Both) + len(p.Out) + len(p.None); got != 2 {
		t.Fatalf("partition covers %d nodes, want 2", got)
	}
}

// TestPartitionMatchesPostJoinEdges: the partition predicted before a
// join must coincide with the actual edges after the join.
func TestPartitionMatchesPostJoinEdges(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := New()
		numNodes := 3 + rng.Intn(15)
		for i := 0; i < numNodes; i++ {
			cfg := Config{
				Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
				Range: rng.Uniform(20.5, 30.5),
			}
			if err := n.Join(graph.NodeID(i), cfg); err != nil {
				return false
			}
		}
		newID := graph.NodeID(numNodes)
		cfg := Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		p := n.PartitionFor(newID, cfg)
		if err := n.Join(newID, cfg); err != nil {
			return false
		}
		g := n.Graph()
		for _, u := range p.In {
			if !g.HasEdge(u, newID) || g.HasEdge(newID, u) {
				return false
			}
		}
		for _, u := range p.Both {
			if !g.HasEdge(u, newID) || !g.HasEdge(newID, u) {
				return false
			}
		}
		for _, u := range p.Out {
			if g.HasEdge(u, newID) || !g.HasEdge(newID, u) {
				return false
			}
		}
		for _, u := range p.None {
			if g.HasEdge(u, newID) || g.HasEdge(newID, u) {
				return false
			}
		}
		return n.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := lineNet(t)
	c := n.Clone()
	must(t, c.Move(3, geom.Point{X: 1, Y: 0}))
	must(t, c.Join(4, Config{Pos: geom.Point{X: 2, Y: 0}, Range: 50}))
	if n.Has(4) {
		t.Fatal("clone join leaked")
	}
	cfg, _ := n.Config(3)
	if cfg.Pos.X != 16 {
		t.Fatal("clone move leaked")
	}
	must(t, n.CheckConsistency())
	must(t, c.CheckConsistency())
}

func TestMinimalConnectivityOK(t *testing.T) {
	n := New()
	must(t, n.Join(1, Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}))
	must(t, n.Join(2, Config{Pos: geom.Point{X: 5, Y: 0}, Range: 10}))
	// A node between them with enough range satisfies the assumption.
	ok := n.MinimalConnectivityOK(3, Config{Pos: geom.Point{X: 2, Y: 0}, Range: 4})
	if !ok {
		t.Fatal("expected minimal connectivity to hold")
	}
	// A node too far away hears nobody and is heard by nobody.
	if n.MinimalConnectivityOK(3, Config{Pos: geom.Point{X: 90, Y: 90}, Range: 4}) {
		t.Fatal("expected minimal connectivity to fail")
	}
	// A node that hears others but cannot reach anyone fails too (range 0
	// still lets others cover it).
	if n.MinimalConnectivityOK(3, Config{Pos: geom.Point{X: 2, Y: 0}, Range: 0}) {
		t.Fatal("deaf transmitter should fail minimal connectivity")
	}
}

// TestRandomEventConsistency drives a random event mix and checks the
// incremental graph always matches the from-scratch induced graph.
func TestRandomEventConsistency(t *testing.T) {
	rng := xrand.New(777)
	n := New()
	next := 0
	ids := []graph.NodeID{}
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0: // join
			cfg := Config{
				Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
				Range: rng.Uniform(5, 40),
			}
			must(t, n.Join(graph.NodeID(next), cfg))
			ids = append(ids, graph.NodeID(next))
			next++
		case 1: // leave
			if len(ids) > 0 {
				i := rng.Intn(len(ids))
				must(t, n.Leave(ids[i]))
				ids = append(ids[:i], ids[i+1:]...)
			}
		case 2: // move
			if len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				must(t, n.Move(id, geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}))
			}
		case 3: // range change
			if len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				must(t, n.SetRange(id, rng.Uniform(0, 60)))
			}
		}
		if step%20 == 0 {
			must(t, n.CheckConsistency())
		}
	}
	must(t, n.CheckConsistency())
}

// Indexed reports whether neighbor scans currently use the spatial grid.
func (n *Network) Indexed() bool { return n.grid != nil }

// MinimalConnectivityOK reports whether the paper's Minimal Connectivity
// assumption holds for node id under configuration cfg: there must exist
// nodes j and k (j, k != id) such that j is within id's range and id is
// within k's range.
func (n *Network) MinimalConnectivityOK(id graph.NodeID, cfg Config) bool {
	var hearsSomeone, someoneHears bool
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			hearsSomeone = true // id transmits to other (other hears id)
		}
		if oc.Covers(cfg.Pos) {
			someoneHears = true // other transmits to id
		}
	})
	return hearsSomeone && someoneHears
}
