package gossip

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// churnedNet builds a network whose assignment has been inflated by churn
// (joins then moves), leaving compaction headroom.
func churnedNet(t *testing.T, seed uint64, n int) (*adhoc.Network, toca.Assignment) {
	t.Helper()
	rng := xrand.New(seed)
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, false)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ev strategy.Event) {
		if err := sess.Apply([]strategy.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		apply(strategy.JoinEvent(graph.NodeID(i), cfg))
	}
	for step := 0; step < 3*n; step++ {
		id := graph.NodeID(rng.Intn(n))
		apply(strategy.MoveEvent(id, geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}))
	}
	st, _ := sess.StrategyOf(sim.Minim)
	return sess.Engine().Network(), st.Assignment()
}

func TestCompactPreservesValidity(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		net, assign := churnedNet(t, seed, 40)
		if !toca.Valid(net.Graph(), assign) {
			t.Fatal("setup invalid")
		}
		Compact(net, assign, 0)
		if vs := toca.Verify(net.Graph(), assign); len(vs) > 0 {
			t.Fatalf("seed %d: compaction broke validity: %v", seed, vs)
		}
	}
}

func TestCompactNeverIncreasesMaxColor(t *testing.T) {
	for _, seed := range []uint64{5, 6, 7} {
		net, assign := churnedNet(t, seed, 40)
		res := Compact(net, assign, 0)
		if res.MaxAfter > res.MaxBefore {
			t.Fatalf("seed %d: max color rose %d -> %d", seed, res.MaxBefore, res.MaxAfter)
		}
		if got := assign.MaxColor(); got != res.MaxAfter {
			t.Fatalf("result MaxAfter %d != assignment %d", res.MaxAfter, got)
		}
	}
}

func TestCompactReachesQuiescence(t *testing.T) {
	net, assign := churnedNet(t, 8, 50)
	res := Compact(net, assign, 0)
	if !Quiescent(net, assign) {
		t.Fatal("not quiescent after Compact")
	}
	// A second compaction is a no-op.
	res2 := Compact(net, assign, 0)
	if res2.Recodings != 0 || res2.MaxAfter != res.MaxAfter {
		t.Fatalf("second compaction did work: %+v", res2)
	}
}

// potential is the sum of all assigned colors: every gossip change
// strictly lowers one node's color, so it strictly decreases each round
// that changes anything, which proves termination.
func potential(assign toca.Assignment) int {
	sum := 0
	for _, c := range assign {
		sum += int(c)
	}
	return sum
}

func TestPotentialStrictlyDecreases(t *testing.T) {
	net, assign := churnedNet(t, 9, 40)
	prev := potential(assign)
	for round := 0; round < 100; round++ {
		changed := Step(net, assign)
		cur := potential(assign)
		if changed == 0 {
			if cur != prev {
				t.Fatal("potential changed in a quiet round")
			}
			return
		}
		if cur >= prev {
			t.Fatalf("round %d: potential %d -> %d with %d changes", round, prev, cur, changed)
		}
		prev = cur
	}
	t.Fatal("no quiescence within 100 rounds")
}

func TestCompactActuallyCompactsAfterChurn(t *testing.T) {
	// Across several seeds, churn must leave some slack that gossip
	// recovers (statistically certain with 3N moves).
	improved := false
	for _, seed := range []uint64{10, 11, 12, 13, 14} {
		net, assign := churnedNet(t, seed, 40)
		res := Compact(net, assign, 0)
		if res.Recodings > 0 {
			improved = true
		}
	}
	if !improved {
		t.Fatal("gossip never found anything to compact after churn")
	}
}

func TestMaxRoundsHonored(t *testing.T) {
	net, assign := churnedNet(t, 15, 40)
	res := Compact(net, assign, 1)
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestStepSkipsUnassigned(t *testing.T) {
	net := adhoc.New()
	if err := net.Join(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	if err := net.Join(2, adhoc.Config{Pos: geom.Point{X: 5, Y: 0}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	assign := toca.Assignment{1: 5} // node 2 unassigned
	if changed := Step(net, assign); changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	if assign[1] != 1 {
		t.Fatalf("node 1 = %d, want 1", assign[1])
	}
	if _, ok := assign[2]; ok {
		t.Fatal("unassigned node touched")
	}
}

func TestQuiescentDetectsSlack(t *testing.T) {
	net := adhoc.New()
	if err := net.Join(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}); err != nil {
		t.Fatal(err)
	}
	assign := toca.Assignment{1: 3}
	if Quiescent(net, assign) {
		t.Fatal("slack not detected")
	}
	assign[1] = 1
	if !Quiescent(net, assign) {
		t.Fatal("tight assignment flagged")
	}
}
