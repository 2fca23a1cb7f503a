// Package repro's benchmark harness: one sub-benchmark per figure
// (Fig 10(a-f), 11(a-c), 12(a-d) and the extension m1) plus the
// ablation benches of DESIGN.md section 8. Figure benches run a reduced
// number of runs per point per iteration (the -runs equivalent is the
// benchRuns constant) and report the headline series values as custom
// metrics so `go test -bench` output doubles as a sanity check of the
// reproduced shapes.
//
// Regenerate the full paper tables with cmd/repro instead; these benches
// measure the cost of regenerating them and pin the shape invariants.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/adhoc"
	bbbpkg "repro/internal/bbb"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/radio"
	shardpkg "repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// benchRuns is the number of simulated networks per plotted point inside
// the figure benches (the paper uses 100; benches keep iterations short).
const benchRuns = 2

func benchConfig(i int) experiments.Config {
	return experiments.Config{Runs: benchRuns, Seed: uint64(1000 + i), Workers: 0}
}

// BenchmarkFigures runs one figure regeneration per b.N iteration for
// every figure ID and reports the last x-point's first series as a
// custom metric.
func BenchmarkFigures(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				fig, err := experiments.ByID(id, benchConfig(i))
				if err != nil {
					b.Fatal(err)
				}
				s := fig.Series[0]
				last = s.Y[len(s.Y)-1]
			}
			b.ReportMetric(last, "minim_last_point")
		})
	}
}

// ---- Per-event microbenchmarks ----

// benchJoinEvent measures the cost of one join handled by the named
// strategy at a given network size.
func benchJoinEvent(b *testing.B, name sim.StrategyName, n int) {
	b.Helper()
	p := workload.Defaults()
	p.N = n
	base := workload.JoinScript(7, p)
	rng := xrand.New(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := sim.NewEngineSession([]sim.StrategyName{name}, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Apply(base); err != nil {
			b.Fatal(err)
		}
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		ev := []strategy.Event{strategy.JoinEvent(graph.NodeID(n+1), cfg)}
		b.StartTimer()
		if err := sess.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinEventMinim100(b *testing.B) { benchJoinEvent(b, sim.Minim, 100) }
func BenchmarkJoinEventCP100(b *testing.B)    { benchJoinEvent(b, sim.CP, 100) }
func BenchmarkJoinEventBBB100(b *testing.B)   { benchJoinEvent(b, sim.BBB, 100) }

// ---- n=1000 event benchmarks: indexed-by-default vs the scan path ----
//
// The base network is built once (1000 joins); each iteration then times
// a single event. Join iterations are paired with an untimed leave so
// the population stays at 1000. The *Scan variants run the identical
// strategy over a NewScan network — the seed architecture's O(n)
// candidate scans — so the indexed-by-default win is visible in the
// BENCH trajectory.
//
// The arena is scaled to hold the paper's N=100-on-100x100 density at
// N=1000 (side ~316): per-event recoding work stays local, so the
// benchmark isolates the neighbor-discovery cost the grid removes. At
// the paper's fixed arena, n=1000 is ~10x denser and the matching
// dominates both paths.

// bench1000Arena is the constant-density arena side for n=1000.
const bench1000Arena = 316.0

func benchJoinEvent1000(b *testing.B, name sim.StrategyName, net *adhoc.Network) {
	eng, err := host1000(name, net)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, cfg := join1000(rng, i)
		if _, err := eng.Apply(strategy.JoinEvent(id, cfg)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := eng.Apply(strategy.LeaveEvent(id)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func benchMoveEvent1000(b *testing.B, name sim.StrategyName, net *adhoc.Network) {
	eng, err := host1000(name, net)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Apply(move1000(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinEventMinim1000(b *testing.B) { benchJoinEvent1000(b, sim.Minim, adhoc.New()) }
func BenchmarkJoinEventMinim1000Scan(b *testing.B) {
	benchJoinEvent1000(b, sim.Minim, adhoc.NewScan())
}
func BenchmarkJoinEventCP1000(b *testing.B)     { benchJoinEvent1000(b, sim.CP, adhoc.New()) }
func BenchmarkJoinEventCP1000Scan(b *testing.B) { benchJoinEvent1000(b, sim.CP, adhoc.NewScan()) }
func BenchmarkMoveEventMinim1000(b *testing.B)  { benchMoveEvent1000(b, sim.Minim, adhoc.New()) }
func BenchmarkMoveEventMinim1000Scan(b *testing.B) {
	benchMoveEvent1000(b, sim.Minim, adhoc.NewScan())
}

// Network-layer n=1000 benches: the topology maintenance the engine
// performs once per event for all subscribers — candidate discovery,
// partition, digraph rewiring — without any recoding on top. This is
// the layer the grid accelerates; the strategy benches above add the
// per-strategy recoding cost (for Minim, the matching dominates).
func benchNetworkEvent1000(b *testing.B, mk func() *adhoc.Network, move bool) {
	p := workload.Defaults()
	p.N = 1000
	p.ArenaW, p.ArenaH = bench1000Arena, bench1000Arena
	net := mk()
	for _, ev := range workload.JoinScript(7, p) {
		if err := net.Join(ev.ID, ev.Cfg); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := geom.Point{X: rng.Uniform(0, bench1000Arena), Y: rng.Uniform(0, bench1000Arena)}
		if move {
			if err := net.Move(graph.NodeID(rng.Intn(1000)), pos); err != nil {
				b.Fatal(err)
			}
			continue
		}
		id := graph.NodeID(2000 + i)
		cfg := adhoc.Config{Pos: pos, Range: rng.Uniform(20.5, 30.5)}
		net.LocalPartitionFor(id, cfg) // what the engine decodes per join
		if err := net.Join(id, cfg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := net.Leave(id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkNetworkJoin1000(b *testing.B)     { benchNetworkEvent1000(b, adhoc.New, false) }
func BenchmarkNetworkJoin1000Scan(b *testing.B) { benchNetworkEvent1000(b, adhoc.NewScan, false) }
func BenchmarkNetworkMove1000(b *testing.B)     { benchNetworkEvent1000(b, adhoc.New, true) }
func BenchmarkNetworkMove1000Scan(b *testing.B) { benchNetworkEvent1000(b, adhoc.NewScan, true) }

// ---- Sharded runtime: n=1000 join+move sweeps vs single-engine ----
//
// The base is an IPPP hot-spot network (one Gaussian spot per 2x2 shard
// region) at n=1000 on a 1000x1000 arena: traffic concentrates in shard
// interiors, the workload region sharding is built for. Each iteration
// times one sweep — shardSweep fresh joins, or one move round over a
// node sample — applied through the single-engine session (shards=0) or
// the sharded coordinator at 1, 2, or 4 region shards. Timed sections
// end with a full drain (Mark) so queued parallel work is counted.

const (
	shardBenchArena = 1000.0
	shardBenchN     = 1000
	shardSweep      = 200
)

func shardBenchDensity() workload.Density {
	return workload.Density{Spots: workload.GridSpots(2, 2, shardBenchArena, shardBenchArena, 80, 1)}
}

func shardBenchParams() workload.Params {
	p := workload.Defaults()
	p.N = shardBenchN
	p.ArenaW, p.ArenaH = shardBenchArena, shardBenchArena
	return p
}

// shardBenchRunner abstracts the two runtimes behind apply+drain.
type shardBenchRunner struct {
	apply func([]strategy.Event) error
	drain func() error
}

func newShardBenchRunner(b *testing.B, shards int) shardBenchRunner {
	b.Helper()
	base := workload.IPPPJoinScript(7, shardBenchParams(), shardBenchDensity())
	if shards == 0 {
		sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Apply(base); err != nil {
			b.Fatal(err)
		}
		return shardBenchRunner{apply: sess.Apply, drain: func() error { return nil }}
	}
	grids := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}}
	g, ok := grids[shards]
	if !ok {
		b.Fatalf("no grid for %d shards", shards)
	}
	coord, err := shardpkg.New(shardpkg.Config{
		GridX: g[0], GridY: g[1],
		ArenaW: shardBenchArena, ArenaH: shardBenchArena,
	}, []sim.StrategyName{sim.Minim})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { coord.Close() })
	drain := func() error { _, err := coord.Mark(); return err }
	if err := coord.Apply(base); err != nil {
		b.Fatal(err)
	}
	if err := drain(); err != nil {
		b.Fatal(err)
	}
	return shardBenchRunner{apply: coord.Apply, drain: drain}
}

// benchShardedJoins times a sweep of shardSweep IPPP joins (paired with
// untimed leaves so the population stays at shardBenchN).
func benchShardedJoins(b *testing.B, shards int) {
	r := newShardBenchRunner(b, shards)
	d := shardBenchDensity()
	b.ResetTimer()
	b.StopTimer() // event construction below is untimed from iteration 0
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(1000 + i))
		joins := make([]strategy.Event, 0, shardSweep)
		leaves := make([]strategy.Event, 0, shardSweep)
		for j := 0; j < shardSweep; j++ {
			id := graph.NodeID(10000 + j)
			cfg := adhoc.Config{
				Pos:   d.Sample(rng, shardBenchArena, shardBenchArena),
				Range: rng.Uniform(20.5, 30.5),
			}
			joins = append(joins, strategy.JoinEvent(id, cfg))
			leaves = append(leaves, strategy.LeaveEvent(id))
		}
		b.StartTimer()
		if err := r.apply(joins); err != nil {
			b.Fatal(err)
		}
		if err := r.drain(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := r.apply(leaves); err != nil {
			b.Fatal(err)
		}
		if err := r.drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardedMoves times one sweep of shardSweep displacement-walk
// moves of base nodes (the paper's mobility model over the hot-spot
// population: small random displacements, so most moves stay
// shard-interior and cross-region walks exercise the border lane).
func benchShardedMoves(b *testing.B, shards int) {
	r := newShardBenchRunner(b, shards)
	base := workload.IPPPJoinScript(7, shardBenchParams(), shardBenchDensity())
	pos := make([]geom.Point, shardBenchN)
	for _, ev := range base {
		pos[ev.ID] = ev.Cfg.Pos
	}
	arena := geom.Arena(shardBenchArena, shardBenchArena)
	b.ResetTimer()
	b.StopTimer() // event construction below is untimed from iteration 0
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(5000 + i))
		moves := make([]strategy.Event, 0, shardSweep)
		for j := 0; j < shardSweep; j++ {
			id := rng.Intn(shardBenchN)
			d := geom.Polar(rng.Uniform(0, 30), rng.Angle())
			pos[id] = arena.Clamp(pos[id].Add(d))
			moves = append(moves, strategy.MoveEvent(graph.NodeID(id), pos[id]))
		}
		b.StartTimer()
		if err := r.apply(moves); err != nil {
			b.Fatal(err)
		}
		if err := r.drain(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

func BenchmarkShardedJoin1000Single(b *testing.B)  { benchShardedJoins(b, 0) }
func BenchmarkShardedJoin1000Shards1(b *testing.B) { benchShardedJoins(b, 1) }
func BenchmarkShardedJoin1000Shards2(b *testing.B) { benchShardedJoins(b, 2) }
func BenchmarkShardedJoin1000Shards4(b *testing.B) { benchShardedJoins(b, 4) }
func BenchmarkShardedMove1000Single(b *testing.B)  { benchShardedMoves(b, 0) }
func BenchmarkShardedMove1000Shards1(b *testing.B) { benchShardedMoves(b, 1) }
func BenchmarkShardedMove1000Shards2(b *testing.B) { benchShardedMoves(b, 2) }
func BenchmarkShardedMove1000Shards4(b *testing.B) { benchShardedMoves(b, 4) }

// ---- Ablation A1: matching edge weights ----

// weightedJoinRun replays a join workload through a Minim-style recoder
// whose matching uses the given old-color edge weight, and returns the
// total recodings and final max color.
func weightedJoinRun(n int, seed uint64, wOld int64) (recodings int, maxColor toca.Color) {
	p := workload.Defaults()
	p.N = n
	net := adhoc.New()
	assign := make(toca.Assignment)
	for _, ev := range workload.JoinScript(seed, p) {
		part := net.PartitionFor(ev.ID, ev.Cfg)
		if err := net.Join(ev.ID, ev.Cfg); err != nil {
			panic(err)
		}
		v1 := append(part.InOrBoth(), ev.ID)
		excl := make(map[graph.NodeID]struct{}, len(v1))
		for _, u := range v1 {
			excl[u] = struct{}{}
		}
		old := make(map[graph.NodeID]toca.Color, len(v1))
		forb := make(map[graph.NodeID]toca.ColorSet, len(v1))
		for _, u := range v1 {
			old[u] = assign[u]
			forb[u] = toca.Forbidden(net.Graph(), assign, u, excl)
		}
		for u, c := range core.SolveWeighted(v1, old, forb, wOld, 1) {
			if assign[u] != c {
				recodings++
			}
			assign[u] = c
		}
	}
	if !toca.Valid(net.Graph(), assign) {
		panic("ablation run produced invalid assignment")
	}
	return recodings, assign.MaxColor()
}

// BenchmarkAblationWeights contrasts old-color edge weights 3 (the
// paper's, provably minimal), 2 (ties with two unit edges), and 1 (pure
// cardinality). The recodings metric shows why wOld > 2*wNew matters.
func BenchmarkAblationWeights(b *testing.B) {
	for _, wOld := range []int64{3, 2, 1} {
		b.Run(fmt.Sprintf("wOld=%d", wOld), func(b *testing.B) {
			var rec int
			var mc toca.Color
			for i := 0; i < b.N; i++ {
				rec, mc = weightedJoinRun(80, uint64(11+i), wOld)
			}
			b.ReportMetric(float64(rec), "recodings")
			b.ReportMetric(float64(mc), "max_color")
		})
	}
}

// ---- Ablation A3: gossip compaction after the join workload ----

func BenchmarkAblationGossip(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run("gossip="+name, func(b *testing.B) {
			var maxColor toca.Color
			for i := 0; i < b.N; i++ {
				sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, false)
				if err != nil {
					b.Fatal(err)
				}
				st, _ := sess.StrategyOf(sim.Minim)
				p := workload.Defaults()
				p.N = 60
				if err := sess.Apply(workload.Churn(uint64(21+i), p, 120,
					workload.ChurnWeights{Join: 1, Leave: 1, Move: 3, Power: 1})); err != nil {
					b.Fatal(err)
				}
				if enabled {
					gossip.Compact(sess.Engine().Network(), st.Assignment(), 0)
				}
				maxColor = st.Assignment().MaxColor()
			}
			b.ReportMetric(float64(maxColor), "max_color")
		})
	}
}

// ---- Ablation A5: CP movement semantics (lax re-pick vs strict
// leave+join). The strict reading always recodes the mover, widening the
// Fig 12(d) gap toward the paper's reported ~400. ----

func BenchmarkAblationCPMove(b *testing.B) {
	p := workload.Defaults()
	p.N = 40
	p.MaxDisp = 40
	p.RoundNo = 5
	for _, name := range []sim.StrategyName{sim.Minim, sim.CP, sim.CPStrict} {
		b.Run(string(name), func(b *testing.B) {
			var delta int
			for i := 0; i < b.N; i++ {
				base := workload.JoinScript(uint64(31+i), p)
				phase := workload.MoveScript(uint64(31+i), p)
				results, err := sim.RunPhases([]sim.StrategyName{name}, base, phase, false)
				if err != nil {
					b.Fatal(err)
				}
				delta = results[0].DeltaRecodings()
			}
			b.ReportMetric(float64(delta), "delta_recodings")
		})
	}
}

// ---- Ablation A4: dense Hungarian vs sparse SSP matcher ----

// joinSizedInstance builds a matching instance shaped like a recoding
// join: k left vertices, ~maxColor right vertices, one weight-3 edge per
// left vertex, the rest weight 1.
func joinSizedInstance(rng *xrand.RNG, k, colors int) (int, int, []matching.Edge) {
	var edges []matching.Edge
	for l := 0; l < k; l++ {
		oldColor := rng.Intn(colors)
		for r := 0; r < colors; r++ {
			if rng.Float64() < 0.2 {
				continue // forbidden
			}
			w := int64(1)
			if r == oldColor {
				w = 3
			}
			edges = append(edges, matching.Edge{L: l, R: r, W: w})
		}
	}
	return k, colors, edges
}

func BenchmarkMatcherHungarian(b *testing.B) {
	rng := xrand.New(31)
	nL, nR, edges := joinSizedInstance(rng, 12, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MaxWeight(nL, nR, edges)
	}
}

func BenchmarkMatcherSSP(b *testing.B) {
	rng := xrand.New(31)
	nL, nR, edges := joinSizedInstance(rng, 12, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MaxWeightSSP(nL, nR, edges)
	}
}

// ---- Substrate microbenchmarks ----

// BenchmarkDSATURConflictGraph100 times BBB's per-event coloring step:
// DSATUR over the network's maintained conflict graph at N=100 (the
// index is built once, before the timer).
func BenchmarkDSATURConflictGraph100(b *testing.B) {
	p := workload.Defaults()
	eng := engine.New()
	if err := eng.ApplyAll(workload.JoinScript(3, p)); err != nil {
		b.Fatal(err)
	}
	net := eng.Network()
	net.ConflictGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coloring.DSATUR(net.ConflictGraph())
	}
}

// BenchmarkBBBEvent100 times one stationary join+leave pair through the
// engine with BBB subscribed, on the paper's N=100 density: two conflict
// index updates and two full DSATUR recolorings per iteration.
func BenchmarkBBBEvent100(b *testing.B) {
	p := workload.Defaults()
	eng := engine.New()
	eng.Subscribe(bbbpkg.New(eng.Network(), nil))
	if err := eng.ApplyAll(workload.JoinScript(3, p)); err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := graph.NodeID(1000 + i)
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, p.ArenaW), Y: rng.Uniform(0, p.ArenaH)},
			Range: rng.Uniform(p.MinR, p.MaxR),
		}
		if _, err := eng.Apply(strategy.JoinEvent(id, cfg)); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Apply(strategy.LeaveEvent(id)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadioSlot(b *testing.B) {
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, false)
	if err != nil {
		b.Fatal(err)
	}
	p := workload.Defaults()
	p.N = 60
	if err := sess.Apply(workload.JoinScript(5, p)); err != nil {
		b.Fatal(err)
	}
	st, _ := sess.StrategyOf(sim.Minim)
	book, err := radio.BookFor(st.Assignment())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := radio.BroadcastAll(sess.Engine().Network(), st.Assignment(), book, nil); err != nil {
			b.Fatal(err)
		}
	}
}
