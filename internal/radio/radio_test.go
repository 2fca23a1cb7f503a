package radio

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// buildMinimNet grows a random network with valid Minim coloring.
func buildMinimNet(t *testing.T, seed uint64, n int) (*adhoc.Network, toca.Assignment) {
	t.Helper()
	rng := xrand.New(seed)
	net, r, apply := hostMinim(t)
	for i := 0; i < n; i++ {
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		apply(strategy.JoinEvent(graph.NodeID(i), cfg))
	}
	if !toca.Valid(net.Graph(), r.Assignment()) {
		t.Fatal("setup produced invalid assignment")
	}
	return net, r.Assignment()
}

// hostMinim returns a Minim recoder on its own engine, the engine's
// network, and a function applying one event through it.
func hostMinim(t *testing.T) (*adhoc.Network, *core.Recoder, func(strategy.Event)) {
	t.Helper()
	eng := engine.New()
	r := core.New(eng.Network(), nil)
	eng.Subscribe(r)
	return eng.Network(), r, func(ev strategy.Event) {
		t.Helper()
		if _, err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidAssignmentDecodesCleanly: with every node transmitting at
// once under a CA1/CA2-valid assignment, every receiver decodes every
// in-neighbor losslessly (invariant I7, first half).
func TestValidAssignmentDecodesCleanly(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		net, assign := buildMinimNet(t, seed, 30)
		book, err := BookFor(assign)
		if err != nil {
			t.Fatal(err)
		}
		// Alternate symbols to exercise both signs.
		symbols := make(map[graph.NodeID]int8)
		for i, id := range net.Nodes() {
			if i%2 == 0 {
				symbols[id] = -1
			} else {
				symbols[id] = 1
			}
		}
		rs, err := BroadcastAll(net, assign, book, symbols)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != net.Graph().NumEdges() {
			t.Fatalf("seed %d: %d receptions, want one per edge (%d)",
				seed, len(rs), net.Graph().NumEdges())
		}
		if g := Garbled(rs); len(g) != 0 {
			t.Fatalf("seed %d: %d garbled receptions under valid assignment, first %+v",
				seed, len(g), g[0])
		}
	}
}

// TestHiddenCollisionGarbles: forcing a CA2 violation (two in-neighbors
// of one receiver share a code) garbles reception at that receiver when
// their symbols oppose (invariant I7, second half).
func TestHiddenCollisionGarbles(t *testing.T) {
	// Receiver 0 hears 1 and 2, who are out of range of each other.
	net := adhoc.New()
	if err := net.Join(0, adhoc.Config{Pos: geom.Point{X: 50, Y: 50}, Range: 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.Join(1, adhoc.Config{Pos: geom.Point{X: 40, Y: 50}, Range: 15}); err != nil {
		t.Fatal(err)
	}
	if err := net.Join(2, adhoc.Config{Pos: geom.Point{X: 60, Y: 50}, Range: 15}); err != nil {
		t.Fatal(err)
	}
	assign := toca.Assignment{0: 3, 1: 2, 2: 2} // CA2 violation at node 0
	if toca.Valid(net.Graph(), assign) {
		t.Fatal("setup should violate CA2")
	}
	book, err := codes.NewCodebook(4)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Slot(net, assign, book, []Transmission{
		{From: 1, Symbol: 1},
		{From: 2, Symbol: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	garbled := Garbled(rs)
	if len(garbled) != 2 {
		t.Fatalf("garbled = %+v, want both colliding receptions", garbled)
	}
	for _, g := range garbled {
		if g.Receiver != 0 || g.Decoded != 0 {
			t.Fatalf("unexpected garbled reception %+v", g)
		}
	}
	// Fixing the violation cleans the slot.
	assign[2] = 1
	rs, err = Slot(net, assign, book, []Transmission{
		{From: 1, Symbol: 1},
		{From: 2, Symbol: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := Garbled(rs); len(g) != 0 {
		t.Fatalf("still garbled after fix: %+v", g)
	}
}

// TestPrimaryCollisionGarbles: a CA1 violation (edge endpoints share a
// code) garbles the edge when both transmit opposite symbols.
func TestPrimaryCollisionGarbles(t *testing.T) {
	net := adhoc.New()
	if err := net.Join(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	if err := net.Join(2, adhoc.Config{Pos: geom.Point{X: 5, Y: 0}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	assign := toca.Assignment{1: 1, 2: 1} // CA1 violation on 1<->2
	book, err := codes.NewCodebook(2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Slot(net, assign, book, []Transmission{
		{From: 1, Symbol: 1},
		{From: 2, Symbol: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := Garbled(rs); len(g) != 2 {
		t.Fatalf("garbled = %+v, want both directions garbled", g)
	}
}

func TestPartialTransmitters(t *testing.T) {
	net, assign := buildMinimNet(t, 7, 20)
	book, err := BookFor(assign)
	if err != nil {
		t.Fatal(err)
	}
	// Only nodes 0 and 1 transmit.
	rs, err := Slot(net, assign, book, []Transmission{
		{From: 0, Symbol: 1},
		{From: 1, Symbol: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Transmitter != 0 && r.Transmitter != 1 {
			t.Fatalf("reception from silent node: %+v", r)
		}
		if !r.OK() {
			t.Fatalf("garbled: %+v", r)
		}
	}
	wantReceptions := len(net.Graph().OutNeighbors(0)) + len(net.Graph().OutNeighbors(1))
	if len(rs) != wantReceptions {
		t.Fatalf("%d receptions, want %d", len(rs), wantReceptions)
	}
}

func TestSlotErrors(t *testing.T) {
	net, assign := buildMinimNet(t, 9, 5)
	book, err := BookFor(assign)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Slot(net, assign, book, []Transmission{{From: 99, Symbol: 1}}); err == nil {
		t.Fatal("absent transmitter did not error")
	}
	if _, err := Slot(net, assign, book, []Transmission{{From: 0, Symbol: 2}}); err == nil {
		t.Fatal("bad symbol did not error")
	}
	if _, err := Slot(net, assign, book, []Transmission{
		{From: 0, Symbol: 1}, {From: 0, Symbol: 1},
	}); err == nil {
		t.Fatal("duplicate transmitter did not error")
	}
	missing := assign.Clone()
	delete(missing, 0)
	if _, err := Slot(net, missing, book, []Transmission{{From: 0, Symbol: 1}}); err == nil {
		t.Fatal("uncoded transmitter did not error")
	}
}

func TestBookForEmptyAssignment(t *testing.T) {
	book, err := BookFor(toca.Assignment{})
	if err != nil {
		t.Fatal(err)
	}
	if book.Capacity() < 1 {
		t.Fatal("empty-assignment book has no capacity")
	}
}

// TestEndToEndAfterEvents: the radio stays clean across a dynamic event
// sequence handled by Minim — the integration the paper motivates.
func TestEndToEndAfterEvents(t *testing.T) {
	rng := xrand.New(321)
	net, r, apply := hostMinim(t)
	for i := 0; i < 25; i++ {
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		apply(strategy.JoinEvent(graph.NodeID(i), cfg))
	}
	for step := 0; step < 50; step++ {
		id := graph.NodeID(rng.Intn(25))
		switch rng.Intn(3) {
		case 0:
			apply(strategy.MoveEvent(id, geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}))
		case 1:
			cfg, _ := net.Config(id)
			apply(strategy.PowerEvent(id, cfg.Range*rng.Uniform(0.7, 1.8)))
		case 2:
			// no-op step (quiet period)
		}
		if step%10 != 0 {
			continue
		}
		book, err := BookFor(r.Assignment())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := BroadcastAll(net, r.Assignment(), book, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g := Garbled(rs); len(g) != 0 {
			t.Fatalf("step %d: %d garbled receptions", step, len(g))
		}
	}
}
