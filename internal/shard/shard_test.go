package shard_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
)

var allNames = []sim.StrategyName{sim.Minim, sim.CP, sim.CPStrict, sim.BBB}

// singleEngine runs the same strategies on the one-engine session and
// returns it, applying phases with a Mark between each.
func singleEngine(t *testing.T, phases [][]strategy.Event) *sim.EngineSession {
	t.Helper()
	sess, err := sim.NewEngineSession(allNames, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range phases {
		if err := sess.Apply(ph); err != nil {
			t.Fatalf("single-engine phase %d: %v", i, err)
		}
		sess.Mark()
	}
	return sess
}

// sharded runs the same phases on a coordinator over the given grid.
func sharded(t *testing.T, cfg shard.Config, phases [][]strategy.Event) *shard.Coordinator {
	t.Helper()
	c, err := shard.New(cfg, allNames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i, ph := range phases {
		if err := c.Apply(ph); err != nil {
			t.Fatalf("sharded phase %d: %v", i, err)
		}
		if _, err := c.Mark(); err != nil {
			t.Fatalf("sharded mark %d: %v", i, err)
		}
	}
	return c
}

// sameGraph asserts two digraphs are identical.
func sameGraph(t *testing.T, want, got *graph.Digraph, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes(), got.Nodes()) {
		t.Fatalf("%s: node sets differ: %v vs %v", label, want.Nodes(), got.Nodes())
	}
	for _, u := range want.Nodes() {
		if !reflect.DeepEqual(want.OutNeighbors(u), got.OutNeighbors(u)) {
			t.Fatalf("%s: out-neighbors of %d differ: %v vs %v",
				label, u, want.OutNeighbors(u), got.OutNeighbors(u))
		}
	}
}

// assertIdentical compares the sharded run against the single-engine
// run: digraph, per-strategy assignments, and per-strategy snapshots.
func assertIdentical(t *testing.T, sess *sim.EngineSession, c *shard.Coordinator, label string) {
	t.Helper()
	net, err := c.Network()
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, sess.Engine().Network().Graph(), net.Graph(), label)
	for _, name := range allNames {
		st, ok := sess.StrategyOf(name)
		if !ok {
			t.Fatalf("%s: single-engine lost strategy %s", label, name)
		}
		got, ok, err := c.AssignmentOf(name)
		if err != nil || !ok {
			t.Fatalf("%s: AssignmentOf(%s): ok=%v err=%v", label, name, ok, err)
		}
		if !reflect.DeepEqual(map[graph.NodeID]toca.Color(st.Assignment()), map[graph.NodeID]toca.Color(got)) {
			t.Fatalf("%s: %s assignments differ:\nsingle: %v\nsharded: %v",
				label, name, st.Assignment(), got)
		}
		want, _ := sess.SnapshotOf(name)
		snap, ok, err := c.SnapshotOf(name)
		if err != nil || !ok {
			t.Fatalf("%s: SnapshotOf(%s): ok=%v err=%v", label, name, ok, err)
		}
		if snap.TotalRecodings != want.TotalRecodings || snap.MaxColor != want.MaxColor || snap.Nodes != want.Nodes {
			t.Fatalf("%s: %s snapshot %+v, want %+v", label, name, snap, want)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// mixedPhases builds a three-phase workload exercising all four event
// kinds: a join base, a power-raise phase, and a movement phase with
// arena-wide moves (guaranteeing region crossings on multi-shard grids).
func mixedPhases(seed uint64, n int) [][]strategy.Event {
	p := workload.Defaults()
	p.N = n
	p.RaiseFactor = 1.5
	p.MaxDisp = 40
	p.RoundNo = 2
	churn := workload.Churn(seed+1, p, n, workload.ChurnWeights{Join: 1, Leave: 1, Move: 2, Power: 1})
	return [][]strategy.Event{
		workload.JoinScript(seed, p),
		workload.PowerRaiseScript(seed, p),
		workload.MoveScript(seed, p),
		churn[p.N:], // the mixed tail only (base already joined)
	}
}

// TestShardedDifferential: sharded runs are bit-identical to the
// single-engine run — identical digraphs, assignments, and metrics at
// every phase boundary — across several grid shapes, including grids so
// fine that almost every event is a border event.
func TestShardedDifferential(t *testing.T) {
	grids := []struct{ gx, gy int }{{1, 1}, {2, 1}, {2, 2}, {4, 4}}
	for _, g := range grids {
		for _, seed := range []uint64{3, 11} {
			t.Run(fmt.Sprintf("grid=%dx%d/seed=%d", g.gx, g.gy, seed), func(t *testing.T) {
				phases := mixedPhases(seed, 40)
				sess := singleEngine(t, phases)
				cfg := shard.Config{GridX: g.gx, GridY: g.gy, ArenaW: 100, ArenaH: 100, Validate: true}
				c := sharded(t, cfg, phases)
				assertIdentical(t, sess, c, t.Name())
			})
		}
	}
}

// TestShardedBorderJoins: joins landing exactly on a region border (and
// straddling it) are escalated to the border lane and still produce the
// single-engine result.
func TestShardedBorderJoins(t *testing.T) {
	var events []strategy.Event
	id := graph.NodeID(0)
	add := func(x, y, r float64) {
		events = append(events, strategy.JoinEvent(id, adhoc.Config{Pos: geom.Point{X: x, Y: y}, Range: r}))
		id++
	}
	// Exactly on the vertical border of a 2x1 grid over 100x100.
	add(50, 20, 10)
	add(50, 50, 10)
	add(50, 80, 10)
	// Straddling it from both sides.
	add(45, 50, 10)
	add(55, 50, 10)
	// Interior to each region.
	add(10, 10, 5)
	add(90, 90, 5)
	// A move onto the border and a power raise on a border node.
	events = append(events, strategy.MoveEvent(5, geom.Point{X: 50, Y: 10}))
	events = append(events, strategy.PowerEvent(3, 20))
	events = append(events, strategy.LeaveEvent(0))

	phases := [][]strategy.Event{events}
	sess := singleEngine(t, phases)
	cfg := shard.Config{GridX: 2, GridY: 1, ArenaW: 100, ArenaH: 100, Validate: true}
	c := sharded(t, cfg, phases)
	assertIdentical(t, sess, c, "border joins")
	if got := c.Stats().Border; got < 5 {
		t.Fatalf("expected the on-border events escalated, got %d border events", got)
	}
	if len(c.BorderSeqs()) != c.Stats().Border {
		t.Fatalf("BorderSeqs %v inconsistent with border count %d", c.BorderSeqs(), c.Stats().Border)
	}
}

// TestShardedBallTouchingBorder: a ball that ends exactly on a region
// border must escalate, because a node sitting exactly on the line
// belongs to the neighboring region (regionOf floors) while Covers is
// inclusive, so the shard-restricted network would hide that node's
// color from the recoding. The scenario makes the hidden color binding
// for CP: the joiner at (20,50) (3r ball ending exactly on the x=50
// line) finds in-neighbors 5 and 3 holding duplicate color 1, so node 5
// reselects — its forbidden set must contain node 1's color, read at
// exactly 3r through the chain 5 -> 2 (out-neighbor at 2r) <- 1
// (co-transmitter on the border line). Hiding it makes 5 pick node 1's
// color, a CA2 violation at receiver 2 and a divergent assignment.
func TestShardedBallTouchingBorder(t *testing.T) {
	r := 10.0
	events := []strategy.Event{
		strategy.JoinEvent(5, adhoc.Config{Pos: geom.Point{X: 30, Y: 50}, Range: r}), // color 1
		strategy.JoinEvent(3, adhoc.Config{Pos: geom.Point{X: 20, Y: 40}, Range: r}), // color 1 (no conflict with 5)
		strategy.JoinEvent(6, adhoc.Config{Pos: geom.Point{X: 20, Y: 30}, Range: r}), // color 2 (CA1 with 3)
		strategy.JoinEvent(7, adhoc.Config{Pos: geom.Point{X: 10, Y: 40}, Range: r}), // color 3 (CA1 with 3, CA2 with 6)
		strategy.JoinEvent(2, adhoc.Config{Pos: geom.Point{X: 40, Y: 50}, Range: r}), // color 2 (CA1 with 5)
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 50, Y: 50}, Range: r}), // color 3, exactly on the border
		strategy.JoinEvent(9, adhoc.Config{Pos: geom.Point{X: 20, Y: 50}, Range: r}), // ball touches x=50 exactly
	}
	phases := [][]strategy.Event{events}
	sess := singleEngine(t, phases)
	cfg := shard.Config{GridX: 2, GridY: 1, ArenaW: 100, ArenaH: 100, Validate: true}
	c := sharded(t, cfg, phases)
	assertIdentical(t, sess, c, "ball touching border")
}

// TestShardedCrossRegionMove: ownership transfers when a border move
// crosses regions; the node's code and edges follow it.
func TestShardedCrossRegionMove(t *testing.T) {
	events := []strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 20, Y: 50}, Range: 8}),
		strategy.JoinEvent(2, adhoc.Config{Pos: geom.Point{X: 25, Y: 50}, Range: 8}),
		strategy.JoinEvent(3, adhoc.Config{Pos: geom.Point{X: 80, Y: 50}, Range: 8}),
		strategy.MoveEvent(1, geom.Point{X: 78, Y: 50}), // region 0 -> region 1
		strategy.MoveEvent(1, geom.Point{X: 22, Y: 50}), // and back
	}
	phases := [][]strategy.Event{events}
	sess := singleEngine(t, phases)
	cfg := shard.Config{GridX: 2, GridY: 1, ArenaW: 100, ArenaH: 100, Validate: true}
	c := sharded(t, cfg, phases)
	assertIdentical(t, sess, c, "cross-region move")
}

// TestShardedInteriorParallelism: with a wide arena and hot spots at
// shard centers, a meaningful share of events is interior and lands on
// distinct shards.
func TestShardedInteriorParallelism(t *testing.T) {
	p := workload.Defaults()
	p.N = 120
	p.ArenaW, p.ArenaH = 400, 400
	p.MinR, p.MaxR = 10, 15
	d := workload.Density{Spots: workload.GridSpots(2, 2, 400, 400, 25, 1)}
	phases := [][]strategy.Event{workload.IPPPJoinScript(5, p, d)}
	sess := singleEngine(t, phases)
	cfg := shard.Config{GridX: 2, GridY: 2, ArenaW: 400, ArenaH: 400, Validate: true}
	c := sharded(t, cfg, phases)
	assertIdentical(t, sess, c, "hot-spot")
	st := c.Stats()
	if st.Interior == 0 {
		t.Fatal("no interior events on a hot-spot workload")
	}
	active := 0
	for _, n := range st.PerShard {
		if n > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("interior events on %d shard(s), want >= 2 (per-shard %v)", active, st.PerShard)
	}
}

// TestShardedReplay: a run is a pure function of its total-order log —
// replaying Log() reproduces assignments, stats, and shard logs.
func TestShardedReplay(t *testing.T) {
	phases := mixedPhases(7, 30)
	cfg := shard.Config{GridX: 2, GridY: 2, ArenaW: 100, ArenaH: 100}
	c := sharded(t, cfg, phases)
	r, err := shard.Replay(c.Log(), cfg, allNames)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range allNames {
		a1, _, err1 := c.AssignmentOf(name)
		a2, _, err2 := r.AssignmentOf(name)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(map[graph.NodeID]toca.Color(a1), map[graph.NodeID]toca.Color(a2)) {
			t.Fatalf("%s: replayed assignment differs", name)
		}
	}
	s1, s2 := c.Stats(), r.Stats()
	if s1.Interior != s2.Interior || s1.Border != s2.Border || !reflect.DeepEqual(s1.PerShard, s2.PerShard) {
		t.Fatalf("replayed stats %+v differ from %+v", s2, s1)
	}
	l1, err := c.ShardLogs()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := r.ShardLogs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatal("replayed shard logs differ")
	}
	if !reflect.DeepEqual(c.BorderSeqs(), r.BorderSeqs()) {
		t.Fatal("replayed border lane order differs")
	}
}

// TestShardedErrors: malformed events surface the single-engine error
// and poison the run.
func TestShardedErrors(t *testing.T) {
	c, err := shard.New(shard.Config{GridX: 2, GridY: 1, ArenaW: 100, ArenaH: 100}, []sim.StrategyName{sim.Minim})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok := []strategy.Event{strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 10, Y: 10}, Range: 5})}
	if err := c.Apply(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply([]strategy.Event{strategy.LeaveEvent(99)}); err == nil {
		t.Fatal("leave of unknown node did not error")
	}
	if err := c.Apply(ok); err == nil {
		t.Fatal("poisoned coordinator accepted more events")
	}
}

// TestConfigValidation rejects nonsense grids.
func TestConfigValidation(t *testing.T) {
	specs := []sim.StrategyName{sim.Minim}
	if _, err := shard.New(shard.Config{GridX: 0, GridY: 1, ArenaW: 100, ArenaH: 100}, specs); err == nil {
		t.Fatal("zero grid accepted")
	}
	if _, err := shard.New(shard.Config{GridX: 1, GridY: 1, ArenaW: 0, ArenaH: 100}, specs); err == nil {
		t.Fatal("zero arena accepted")
	}
	if _, err := shard.New(shard.Config{GridX: 1, GridY: 1, ArenaW: 100, ArenaH: 100}, nil); err == nil {
		t.Fatal("no strategies accepted")
	}
	if _, err := shard.New(shard.Config{GridX: 1, GridY: 1, ArenaW: 100, ArenaH: 100}, []sim.StrategyName{"nope"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// phaseResults drives names through base then phase on a coordinator
// and reports sim.PhaseResults at both boundaries, the shape
// sim.RunPhases reports for a single-engine run.
func phaseResults(t *testing.T, cfg shard.Config, names []sim.StrategyName, base, phase []strategy.Event) []sim.PhaseResult {
	t.Helper()
	c := sharded(t, cfg, [][]strategy.Event{base})
	snaps := func() []sim.Snapshot {
		out := make([]sim.Snapshot, len(names))
		for i, name := range names {
			s, ok, err := c.SnapshotOf(name)
			if err != nil || !ok {
				t.Fatalf("SnapshotOf(%s): ok=%v err=%v", name, ok, err)
			}
			out[i] = s
		}
		return out
	}
	afterBase := snaps()
	if err := c.Apply(phase); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mark(); err != nil {
		t.Fatal(err)
	}
	final := snaps()
	results := make([]sim.PhaseResult, len(names))
	for i, name := range names {
		results[i] = sim.PhaseResult{Name: name, AfterBase: afterBase[i], Final: final[i]}
	}
	return results
}

// TestCoordinatorMatchesRunPhases: a sharded run yields the exact
// PhaseResults of sim.RunPhases, for all hosted strategies, on a join
// base followed by a movement phase, with CA1/CA2 re-verified at every
// barrier and mark.
func TestCoordinatorMatchesRunPhases(t *testing.T) {
	p := workload.Defaults()
	p.N = 40
	p.MaxDisp = 30
	p.RoundNo = 2
	base := workload.JoinScript(5, p)
	phase := workload.MoveScript(5, p)

	want, err := sim.RunPhases(allNames, base, phase, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range []struct{ gx, gy int }{{1, 1}, {2, 2}} {
		cfg := shard.Config{GridX: grid.gx, GridY: grid.gy, ArenaW: p.ArenaW, ArenaH: p.ArenaH, Validate: true}
		got := phaseResults(t, cfg, allNames, base, phase)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("grid %dx%d: sharded results %+v, want %+v", grid.gx, grid.gy, got, want)
		}
	}
}
