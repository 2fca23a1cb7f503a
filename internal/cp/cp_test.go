package cp

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

func mustJoin(t *testing.T, s *host, id graph.NodeID, x, y, rng float64) strategy.Outcome {
	t.Helper()
	out, err := s.Join(id, adhoc.Config{Pos: geom.Point{X: x, Y: y}, Range: rng})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkValid(t *testing.T, s *host) {
	t.Helper()
	if vs := toca.Verify(s.Network().Graph(), s.Assignment()); len(vs) > 0 {
		t.Fatalf("assignment invalid: %v", vs)
	}
}

func TestFirstJoin(t *testing.T) {
	s := newHost()
	out := mustJoin(t, s, 1, 50, 50, 25)
	if s.Assignment()[1] != 1 || out.Recodings() != 1 {
		t.Fatalf("first join: %v, %+v", s.Assignment(), out)
	}
	if s.Name() != "CP" {
		t.Fatalf("Name = %q", s.Name())
	}
}

// TestJoinRecolorsDuplicatedClasses: the worked bridge example. CP makes
// every member of a duplicated class re-select, so it can recode more
// nodes than Minim on the same event (the paper's Fig 4 effect).
func TestJoinRecolorsDuplicatedClasses(t *testing.T) {
	s := newHost()
	mustJoin(t, s, 1, 0, 0, 20)  // color 1
	mustJoin(t, s, 2, 3, 0, 20)  // color 2
	mustJoin(t, s, 3, 30, 0, 20) // color 1
	mustJoin(t, s, 4, 33, 0, 20) // color 2
	out := mustJoin(t, s, 8, 16.5, 0, 20)
	checkValid(t, s)
	// The five nodes are a conflict clique: five distinct colors.
	if out.MaxColor != 5 {
		t.Fatalf("max color = %d, want 5", out.MaxColor)
	}
	// CP's highest-first re-selection: 8 picks first (lowest free among
	// kept = none kept relevant... all four are duplicated, so all
	// re-select after 8). Order: 8,4,3,2,1. 8 takes 1; 4 takes 2 (its
	// old, no recode); 3 takes 3; 2 takes 4; 1 takes 5.
	want := toca.Assignment{8: 1, 4: 2, 3: 3, 2: 4, 1: 5}
	for id, c := range want {
		if got := s.Assignment()[id]; got != c {
			t.Fatalf("node %d = %d, want %d (full: %v)", id, got, c, s.Assignment())
		}
	}
	// Recodings: 8 (new), 3 (1->3), 2 (2->4), 1 (1->5) = 4; node 4 kept.
	if out.Recodings() != 4 {
		t.Fatalf("recodings = %d, want 4", out.Recodings())
	}
}

// TestCPvsMinimOnBridgeJoin: on the same event CP recodes strictly more
// than Minim (4 vs 3), reproducing the paper's Fig 4 comparison shape.
func TestCPvsMinimOnBridgeJoin(t *testing.T) {
	build := func(apply func(id graph.NodeID, cfg adhoc.Config) (strategy.Outcome, error)) strategy.Outcome {
		var last strategy.Outcome
		coords := []struct {
			id   graph.NodeID
			x, y float64
		}{{1, 0, 0}, {2, 3, 0}, {3, 30, 0}, {4, 33, 0}, {8, 16.5, 0}}
		for _, c := range coords {
			out, err := apply(c.id, adhoc.Config{Pos: geom.Point{X: c.x, Y: c.y}, Range: 20})
			if err != nil {
				t.Fatal(err)
			}
			last = out
		}
		return last
	}
	eng := engine.New()
	eng.Subscribe(core.New(eng.Network(), nil))
	minOut := build(func(id graph.NodeID, cfg adhoc.Config) (strategy.Outcome, error) {
		outs, err := eng.Apply(strategy.JoinEvent(id, cfg))
		if err != nil {
			return strategy.Outcome{}, err
		}
		return outs[0], nil
	})
	cpOut := build(newHost().Join)
	if minOut.Recodings() >= cpOut.Recodings() {
		t.Fatalf("Minim %d recodings, CP %d — expected Minim < CP",
			minOut.Recodings(), cpOut.Recodings())
	}
	if minOut.MaxColor != cpOut.MaxColor {
		t.Fatalf("max colors differ: Minim %d, CP %d (both should need 5)",
			minOut.MaxColor, cpOut.MaxColor)
	}
}

// TestPowerIncreaseRecoding mirrors the paper's Fig 6 shape: CP recodes
// both the initiator and the same-colored new neighbors, where Minim
// recodes only the initiator.
func TestPowerIncreaseRecoding(t *testing.T) {
	s := newHost()
	mustJoin(t, s, 1, 0, 0, 5)    // color 1
	mustJoin(t, s, 2, 4, 0, 5)    // color 2
	mustJoin(t, s, 3, 20, 0, 5)   // color 1
	mustJoin(t, s, 4, 24, 0, 5)   // color 2
	out, err := s.SetRange(3, 21) // 3 now covers 1 and 2
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, s)
	// Node 1 has a new constraint with 3 and shares color 1: group =
	// {3, 1}, highest first. 3 picks lowest free among decided
	// constraints (1 undecided, 2 and 4 hold 2, and... 3's conflicts:
	// out {1,2,4}, in {4}, co-in of 1: {2}? 2 covers 1? d(2,1)=4<=5 yes.
	// Decided constraint colors: {2}. 3 picks 1. Then 1 picks: conflicts
	// {2 (c2), 3 (c1 now)} -> picks 3.
	if got := s.Assignment()[3]; got != 1 {
		t.Fatalf("node 3 = %d, want 1", got)
	}
	if got := s.Assignment()[1]; got != 3 {
		t.Fatalf("node 1 = %d, want 3", got)
	}
	// Recodings: 3 changed 1->1? no — 3 re-picked its old color 1: not a
	// recoding. 1 changed 1->3: one recoding.
	if out.Recodings() != 1 {
		t.Fatalf("recodings = %d, want 1", out.Recodings())
	}
}

func TestPowerIncreaseNoConflict(t *testing.T) {
	s := newHost()
	mustJoin(t, s, 1, 0, 0, 5)
	mustJoin(t, s, 2, 4, 0, 5)
	// Node 1 grows to cover nothing new that conflicts (2 already
	// covered, distinct colors): zero recodings.
	out, err := s.SetRange(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if out.Recodings() != 0 {
		t.Fatalf("recodings = %d, want 0", out.Recodings())
	}
	checkValid(t, s)
}

func TestPowerDecreaseNoRecode(t *testing.T) {
	s := newHost()
	mustJoin(t, s, 1, 0, 0, 10)
	mustJoin(t, s, 2, 4, 0, 10)
	out, err := s.SetRange(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Recodings() != 0 {
		t.Fatalf("recodings = %d, want 0", out.Recodings())
	}
	checkValid(t, s)
}

func TestLeave(t *testing.T) {
	s := newHost()
	mustJoin(t, s, 1, 0, 0, 10)
	mustJoin(t, s, 2, 4, 0, 10)
	out, err := s.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Recodings() != 0 {
		t.Fatalf("leave recoded %d", out.Recodings())
	}
	if _, ok := s.Assignment()[1]; ok {
		t.Fatal("departed node still assigned")
	}
	if _, err := s.Leave(1); err == nil {
		t.Fatal("double leave did not error")
	}
}

// TestMoveKeepsColorWhenFree mirrors Fig 9: the mover re-selects and may
// land on its old color, counting zero recodings for itself.
func TestMoveKeepsColorWhenFree(t *testing.T) {
	s := newHost()
	mustJoin(t, s, 1, 0, 0, 20)  // color 1
	mustJoin(t, s, 2, 3, 0, 20)  // color 2
	mustJoin(t, s, 3, 60, 0, 20) // color 1
	mustJoin(t, s, 4, 63, 0, 20) // color 2
	out, err := s.Move(2, geom.Point{X: 57, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, s)
	// At the destination 1n∪2n = {3,4} with distinct colors; only the
	// mover re-selects. Its conflicts hold colors {1,2}... node 4 holds
	// 2 and node 3 holds 1, so the mover picks 3: one recoding.
	if out.Recodings() != 1 {
		t.Fatalf("recodings = %d, want 1", out.Recodings())
	}
	if got := s.Assignment()[2]; got != 3 {
		t.Fatalf("mover color = %d, want 3", got)
	}
}

func TestErrorsOnAbsent(t *testing.T) {
	s := newHost()
	if _, err := s.Move(9, geom.Point{}); err == nil {
		t.Fatal("move absent")
	}
	if _, err := s.SetRange(9, 1); err == nil {
		t.Fatal("setrange absent")
	}
	if _, err := s.Apply(strategy.Event{Kind: 99}); err == nil {
		t.Fatal("unknown kind")
	}
	if _, err := s.OnDelta(engine.Delta{Event: strategy.Event{Kind: 99}}); err == nil {
		t.Fatal("unknown kind reached OnDelta without error")
	}
	mustJoin(t, s, 1, 0, 0, 5)
	if _, err := s.Join(1, adhoc.Config{}); err == nil {
		t.Fatal("dup join")
	}
}

// TestLongRandomEventStream: CP stays CA1/CA2-valid over a long mixed
// event sequence (invariant I1 for the baseline).
func TestLongRandomEventStream(t *testing.T) {
	rng := xrand.New(8080)
	s := newHost()
	next := 0
	var present []graph.NodeID
	for step := 0; step < 500; step++ {
		var ev strategy.Event
		switch k := rng.Intn(10); {
		case k < 4 || len(present) == 0:
			ev = strategy.JoinEvent(graph.NodeID(next), adhoc.Config{
				Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
				Range: rng.Uniform(20.5, 30.5),
			})
			present = append(present, graph.NodeID(next))
			next++
		case k < 6:
			ev = strategy.MoveEvent(present[rng.Intn(len(present))],
				geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)})
		case k < 8:
			id := present[rng.Intn(len(present))]
			cfg, _ := s.Network().Config(id)
			ev = strategy.PowerEvent(id, cfg.Range*rng.Uniform(0.5, 2.5))
		default:
			i := rng.Intn(len(present))
			ev = strategy.LeaveEvent(present[i])
			present = append(present[:i], present[i+1:]...)
		}
		if _, err := s.Apply(ev); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkValid(t, s)
	}
}

// TestJoinLocality: CP's join only recodes the joiner and members of
// 1n∪2n (never anything farther away).
func TestJoinLocality(t *testing.T) {
	rng := xrand.New(9091)
	for trial := 0; trial < 30; trial++ {
		s := newHost()
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			mustJoin(t, s, graph.NodeID(i),
				rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(20.5, 30.5))
		}
		id := graph.NodeID(n + 1)
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		part := s.Network().PartitionFor(id, cfg)
		allowed := map[graph.NodeID]struct{}{id: {}}
		for _, u := range part.InOrBoth() {
			allowed[u] = struct{}{}
		}
		out, err := s.Join(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for u := range out.Recoded {
			if _, ok := allowed[u]; !ok {
				t.Fatalf("trial %d: CP recoded non-local node %d", trial, u)
			}
		}
		checkValid(t, s)
	}
}
