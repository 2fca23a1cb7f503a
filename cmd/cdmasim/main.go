// Command cdmasim runs a single ad-hoc network scenario under one of the
// three recoding strategies and reports the paper's metrics, optionally
// followed by a gossip compaction pass (the paper's section 6 extension)
// and a chip-level radio check that the final assignment is
// collision-free.
//
// With -shards > 1 the run executes on the region-partitioned parallel
// runtime (internal/shard): the arena splits into a grid of regions,
// interior events run concurrently on per-region workers, and events
// whose interference ball crosses a region border are serialized on the
// border lane — bit-identical to the single-engine run. -hotspots K
// draws join positions from an inhomogeneous Poisson density with K
// Gaussian hot spots on a regular grid (the workload where sharding
// pays off when the spot grid matches the shard grid); the generated
// script depends only on the workload flags, never on -shards, so runs
// at different shard counts are directly comparable.
//
// Usage:
//
//	cdmasim [-strategy Minim|CP|BBB] [-n 100] [-minr 20.5] [-maxr 30.5]
//	        [-arena 100] [-churn 200] [-seed 1] [-shards 1] [-hotspots 4]
//	        [-gossip] [-radio] [-v]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/adhoc"
	"repro/internal/gossip"
	"repro/internal/radio"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		strat           = flag.String("strategy", "Minim", "recoding strategy: Minim, CP, or BBB")
		n               = flag.Int("n", 100, "number of stations")
		minr            = flag.Float64("minr", 20.5, "minimum transmission range")
		maxr            = flag.Float64("maxr", 30.5, "maximum transmission range")
		churn           = flag.Int("churn", 0, "extra mixed events after the joins")
		seed            = flag.Uint64("seed", 1, "workload seed")
		doGossip        = flag.Bool("gossip", false, "run gossip compaction after the scenario")
		doRadio         = flag.Bool("radio", false, "run a chip-level all-transmit radio check")
		saveTo          = flag.String("save", "", "save the generated event script as a JSON trace")
		replay          = flag.String("replay", "", "replay a JSON trace instead of generating a workload")
		arena           = flag.Float64("arena", 100, "arena side length")
		shards          = flag.Int("shards", 1, "region shards (>1 runs the parallel sharded runtime)")
		hotspots        = flag.Int("hotspots", 0, "IPPP joins: number of Gaussian hot spots (0 = uniform; workload is independent of -shards)")
		sessions        = flag.Int("serve-sessions", 0, "load-generator mode: drive this many concurrent serve sessions with IPPP traffic")
		readers         = flag.Int("serve-readers", 2, "load-generator mode: concurrent snapshot readers per session")
		serveDir        = flag.String("serve-dir", "", "load-generator mode: WAL directory (empty disables durability)")
		clusterSmoke    = flag.Bool("cluster-smoke", false, "cluster mode: run an in-process 3-member cluster over real HTTP, kill the primary mid-run, keep writing through the failover, and verify against an uncrashed reference")
		clusterReplicas = flag.Int("cluster-replicas", 2, "cluster mode: follower replicas per session")
		chaosMatrix     = flag.Bool("chaos-matrix", false, "chaos mode: sweep a seeded loss/dup/reorder scenario grid against parity oracles, then run a 3-member network-partition soak with link faults")
		chaosFull       = flag.Bool("chaos-full", false, "chaos mode: run the full knob grid (27 combos) instead of the CI smoke subset")
		chaosSeed       = flag.Uint64("chaos-seed", 1, "chaos mode: scenario seed (a failing run reproduces from this seed alone)")
		chaosLog        = flag.String("chaos-log", "", "chaos mode: write the NDJSON chaos event log to this path")
		verbose         = flag.Bool("v", false, "per-event output")
	)
	flag.Parse()

	p := workload.Defaults()
	p.N = *n
	p.MinR = *minr
	p.MaxR = *maxr
	p.ArenaW, p.ArenaH = *arena, *arena
	gx, gy := gridFor(*shards)

	if *chaosMatrix {
		runChaosMatrix(*chaosSeed, *chaosFull, *chaosLog, *verbose)
		return
	}
	if *clusterSmoke {
		runClusterLoad(p, *churn, *hotspots, *seed, *clusterReplicas, *verbose)
		return
	}
	if *sessions > 0 {
		runServeLoad(p, *sessions, *readers, *churn, *hotspots, *seed, *serveDir, *verbose)
		return
	}

	events, err := buildScript(*seed, p, *churn, *hotspots)
	if err != nil {
		fail(err)
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fail(err)
		}
		name, loaded, err := trace.Load(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("replaying trace %q (%d events)\n", name, len(loaded))
		events = loaded
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fail(err)
		}
		if err := trace.Save(f, fmt.Sprintf("cdmasim seed=%d n=%d churn=%d", *seed, *n, *churn), events); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace saved to %s\n", *saveTo)
	}

	name := sim.StrategyName(*strat)
	var (
		finalNet    *networkView
		snap        sim.Snapshot
		shardReport string
	)
	if *shards > 1 {
		// Region-partitioned parallel runtime: one engine per region
		// shard, border lane for cross-region interference.
		coord, err := shard.New(shard.Config{GridX: gx, GridY: gy, ArenaW: p.ArenaW, ArenaH: p.ArenaH}, []sim.StrategyName{name})
		if err != nil {
			fail(err)
		}
		defer coord.Close()
		if *verbose {
			fmt.Printf("applying %d events across %dx%d shards...\n", len(events), gx, gy)
		}
		if err := coord.Apply(events); err != nil {
			fail(err)
		}
		var ok bool
		snap, ok, err = coord.SnapshotOf(name)
		if err != nil || !ok {
			fail(fmt.Errorf("sharded snapshot: ok=%v err=%v", ok, err))
		}
		net, err := coord.Network()
		if err != nil {
			fail(err)
		}
		assign, _, err := coord.AssignmentOf(name)
		if err != nil {
			fail(err)
		}
		if *verbose {
			// O(n^2) debug check (pairwise edge re-derivation per shard);
			// the cheap CA1/CA2 verification below always runs.
			if err := coord.CheckConsistency(); err != nil {
				fail(err)
			}
		}
		finalNet = &networkView{net: net, assign: assign}
		st := coord.Stats()
		shardReport = fmt.Sprintf("shards           : %dx%d, %d interior / %d border events, %d barriers\n",
			gx, gy, st.Interior, st.Border, st.Barriers)
	} else {
		// Host the strategy on the shared incremental network engine:
		// the engine owns the one network replica, decodes each event
		// once, and fans the delta out.
		sess, err := sim.NewEngineSession([]sim.StrategyName{name}, true)
		if err != nil {
			fail(err)
		}
		st, _ := sess.StrategyOf(name)
		if *verbose {
			fmt.Printf("applying %d events to %s...\n", len(events), st.Name())
		}
		if err := sess.Apply(events); err != nil {
			fail(err)
		}
		snap, _ = sess.SnapshotOf(name)
		finalNet = &networkView{net: sess.Engine().Network(), assign: st.Assignment()}
	}

	fmt.Printf("strategy         : %s\n", name)
	fmt.Printf("events           : %d\n", len(events))
	fmt.Printf("nodes            : %d\n", snap.Nodes)
	fmt.Printf("total recodings  : %d\n", snap.TotalRecodings)
	fmt.Printf("max color index  : %d\n", snap.MaxColor)
	if shardReport != "" {
		fmt.Print(shardReport)
	}

	if vs := toca.Verify(finalNet.net.Graph(), finalNet.assign); len(vs) > 0 {
		fail(fmt.Errorf("final assignment has %d violations", len(vs)))
	}
	fmt.Printf("CA1/CA2          : valid\n")

	if *doGossip {
		res := gossip.Compact(finalNet.net, finalNet.assign, 0)
		fmt.Printf("gossip           : %d recodings over %d rounds, max color %d -> %d\n",
			res.Recodings, res.Rounds, res.MaxBefore, res.MaxAfter)
		if vs := toca.Verify(finalNet.net.Graph(), finalNet.assign); len(vs) > 0 {
			fail(fmt.Errorf("gossip broke the assignment: %d violations", len(vs)))
		}
	}

	if *doRadio {
		book, err := radio.BookFor(finalNet.assign)
		if err != nil {
			fail(err)
		}
		rs, err := radio.BroadcastAll(finalNet.net, finalNet.assign, book, nil)
		if err != nil {
			fail(err)
		}
		garbled := radio.Garbled(rs)
		fmt.Printf("radio            : %d/%d receptions clean (chip length %d)\n",
			len(rs)-len(garbled), len(rs), book.ChipLength())
		if len(garbled) > 0 {
			fail(fmt.Errorf("radio check found %d garbled receptions", len(garbled)))
		}
	}
}

// networkView pairs the final topology with the strategy's assignment
// for the post-run checks (single-engine and sharded runs both yield
// one).
type networkView struct {
	net    *adhoc.Network
	assign toca.Assignment
}

// buildScript generates one run's workload: IPPP hot-spot joins, a
// churn mix, or plain uniform joins. Hot spots and churn cannot be
// combined — churn regenerates its own uniform join base internally, so
// the combination would silently drop the hot-spot density.
func buildScript(seed uint64, p workload.Params, churn, hotspots int) ([]strategy.Event, error) {
	if hotspots > 0 {
		if churn > 0 {
			return nil, fmt.Errorf("-hotspots and -churn cannot be combined (churn uses a uniform join base)")
		}
		hx, hy := gridFor(hotspots)
		d := workload.Density{Spots: workload.GridSpots(hx, hy, p.ArenaW, p.ArenaH, p.ArenaW/float64(3*hx), 1)}
		return workload.IPPPJoinScript(seed, p, d), nil
	}
	if churn > 0 {
		return workload.Churn(seed, p, churn, workload.ChurnWeights{Join: 1, Leave: 1, Move: 3, Power: 2}), nil
	}
	return workload.JoinScript(seed, p), nil
}

// gridFor factors a shard count into the most square gx x gy grid.
func gridFor(n int) (int, int) {
	if n < 1 {
		n = 1
	}
	for d := int(math.Sqrt(float64(n))); d > 1; d-- {
		if n%d == 0 {
			return n / d, d
		}
	}
	return n, 1
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cdmasim: %v\n", err)
	os.Exit(1)
}
