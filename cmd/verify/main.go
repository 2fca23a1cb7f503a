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
//   - the restricted-network locality certificate (Thm 4.1.10, derived
//     in internal/core's package doc): on a 1000 m arena, every local
//     strategy recodes exactly the same nodes to the same colors when
//     an event runs on the network restricted to the 3r ball around it
//     as when it runs on the full network; the spatial-index network
//     matches the naive scans; the incremental violation checker
//     tracks the full verifier;
//   - gossip compaction preserves validity and never raises the max
//     color (I9).
//
// Usage: verify [-iters 50] [-events 200] [-seed 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/adhoc"
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
	var restricted, total int
	for it := 0; it < *iters; it++ {
		if err := scenario(master.Split(), *events); err != nil {
			fmt.Fprintf(os.Stderr, "verify: scenario %d FAILED: %v\n", it, err)
			os.Exit(1)
		}
		if err := distScenario(master.Split()); err != nil {
			fmt.Fprintf(os.Stderr, "verify: dist scenario %d FAILED: %v\n", it, err)
			os.Exit(1)
		}
		st, err := certScenario(master.Split(), *events, certRadius)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verify: certificate scenario %d FAILED: %v\n", it, err)
			os.Exit(1)
		}
		restricted += st.restricted
		total += st.events
	}
	// A restricted network as large as the full one makes the
	// certificate check an identity: at least one event must have run
	// on a strictly smaller network.
	if *iters > 0 && restricted == 0 {
		fmt.Fprintf(os.Stderr, "verify: none of %d certificate events ran on a strictly smaller network\n", total)
		os.Exit(1)
	}
	fmt.Printf("verify: %d scenarios x %d events on 3 strategies + %d distributed joins + %d certificate runs (%d of %d events restricted): all invariants hold\n",
		*iters, *events, *iters, *iters, restricted, total)
}

// certRadius is the locality certificate's radius in units of the
// event's range bound r: an event reads colors only within 3r of its
// position (internal/core's package doc derives it).
const certRadius = 3.0

// certArena is the side of the certificate scenario's arena: wide
// enough that the 3r ball (r about 30.5) holds a small part of it.
const certArena = 1000.0

// certStats counts one certificate scenario's events and those whose
// restricted network was strictly smaller than the full one.
type certStats struct{ events, restricted int }

// localStrategies lists the strategies whose sim.Spec is Local: the
// ones the locality certificate covers.
func localStrategies() ([]sim.StrategyName, []sim.Spec, error) {
	var names []sim.StrategyName
	var specs []sim.Spec
	for _, name := range []sim.StrategyName{sim.Minim, sim.CP, sim.CPStrict, sim.BBB} {
		spec, err := sim.SpecOf(name)
		if err != nil {
			return nil, nil, err
		}
		if spec.Local {
			names = append(names, name)
			specs = append(specs, spec)
		}
	}
	return names, specs, nil
}

// certScript draws a random mixed script on the certificate arena: a
// population of joins, then events steps mixing all four event kinds.
func certScript(rng *xrand.RNG, events int) []strategy.Event {
	arena := geom.Arena(certArena, certArena)
	pos := map[graph.NodeID]geom.Point{}
	var present []graph.NodeID
	var script []strategy.Event
	join := func() {
		id := graph.NodeID(len(script))
		p := geom.Point{X: rng.Uniform(0, certArena), Y: rng.Uniform(0, certArena)}
		pos[id] = p
		present = append(present, id)
		script = append(script, strategy.JoinEvent(id, adhoc.Config{Pos: p, Range: rng.Uniform(20.5, 30.5)}))
	}
	for n := 125 + rng.Intn(375); n > 0; n-- {
		join()
	}
	for step := 0; step < events; step++ {
		switch k := rng.Intn(10); {
		case k < 3 || len(present) == 0:
			join()
		case k < 6:
			id := present[rng.Intn(len(present))]
			pos[id] = arena.Clamp(pos[id].Add(geom.Polar(rng.Uniform(0, 60), rng.Angle())))
			script = append(script, strategy.MoveEvent(id, pos[id]))
		case k < 8:
			id := present[rng.Intn(len(present))]
			script = append(script, strategy.PowerEvent(id, rng.Uniform(10, 45)))
		default:
			i := rng.Intn(len(present))
			script = append(script, strategy.LeaveEvent(present[i]))
			present = append(present[:i], present[i+1:]...)
		}
	}
	return script
}

// hostAll builds an engine over net hosting one instance per spec, each
// adopting its assigns entry (nil starts empty).
func hostAll(net *adhoc.Network, specs []sim.Spec, assigns []toca.Assignment) (*engine.Engine, []sim.Hosted) {
	eng := engine.Adopt(net)
	strats := make([]sim.Hosted, len(specs))
	for i, spec := range specs {
		var a toca.Assignment
		if assigns != nil {
			a = assigns[i]
		}
		strats[i] = spec.New(net, a)
		eng.Subscribe(strats[i])
	}
	return eng, strats
}

// certScenario checks the locality certificate on one random mixed
// script: before each event it builds the network restricted to the
// nodes within mult·r of the event's position p (plus the event node),
// with their configs and every local strategy's colors, applies the
// event there too, and requires each strategy to recode the same nodes
// to the same colors as on the full network. r bounds every range the
// event involves: the network's monotone MaxRange, raised to the
// event's own range for a join or a power change. p is a join's
// position, a move's destination, and otherwise the node's current
// position.
//
// The same scenario checks two backend equivalences: the spatial-index
// network matches the naive scans on the whole script, and the
// incremental violation checker tracks the full verifier under random
// recoloring.
func certScenario(rng *xrand.RNG, events int, mult float64) (certStats, error) {
	var st certStats
	names, specs, err := localStrategies()
	if err != nil {
		return st, err
	}
	script := certScript(rng, events)
	full, strats := hostAll(adhoc.NewIndexed(30.5), specs, nil)
	scan, scanStrats := hostAll(adhoc.NewScan(), specs, nil)
	net := full.Network()
	var ids []graph.NodeID // the network's nodes in join order
	for step, ev := range script {
		p, r := ev.Cfg.Pos, math.Max(net.MaxRange(), ev.Cfg.Range)
		if ev.Kind != strategy.Join {
			cfg, _ := net.Config(ev.ID)
			p, r = cfg.Pos, net.MaxRange()
		}
		switch ev.Kind {
		case strategy.Move:
			p = ev.Pos
		case strategy.PowerChange:
			r = math.Max(r, ev.R)
		}
		ball := mult * r
		sub := adhoc.NewScan()
		assigns := make([]toca.Assignment, len(strats))
		for i := range assigns {
			assigns[i] = make(toca.Assignment)
		}
		for _, id := range ids {
			cfg, _ := net.Config(id)
			if id != ev.ID && cfg.Pos.DistanceSqTo(p) > ball*ball {
				continue
			}
			if err := sub.Join(id, cfg); err != nil {
				return st, err
			}
			for i, s := range strats {
				if c, ok := s.Assignment()[id]; ok {
					assigns[i][id] = c
				}
			}
		}
		st.events++
		if sub.Size() < net.Size() {
			st.restricted++
		}
		subEng, _ := hostAll(sub, specs, assigns)
		want, err := full.Apply(ev)
		if err != nil {
			return st, fmt.Errorf("step %d: %w", step, err)
		}
		got, err := subEng.Apply(ev)
		if err != nil {
			return st, fmt.Errorf("step %d on the restricted network: %w", step, err)
		}
		for i := range strats {
			if err := sameRecoded(want[i].Recoded, got[i].Recoded); err != nil {
				return st, fmt.Errorf("%s: step %d (%v on node %d, %d of %d nodes within %.1f): %w",
					names[i], step, ev.Kind, ev.ID, sub.Size(), net.Size(), ball, err)
			}
		}
		if _, err := scan.Apply(ev); err != nil {
			return st, fmt.Errorf("step %d on the scan network: %w", step, err)
		}
		switch ev.Kind {
		case strategy.Join:
			ids = append(ids, ev.ID)
		case strategy.Leave:
			ids = slices.DeleteFunc(ids, func(id graph.NodeID) bool { return id == ev.ID })
		}
	}

	// Indexed vs naive scans: identical assignments, consistent networks.
	for i := range strats {
		want, got := strats[i].Assignment(), scanStrats[i].Assignment()
		if len(want) != len(got) {
			return st, fmt.Errorf("%s: indexed network colored %d nodes, scan %d", names[i], len(want), len(got))
		}
		for id, c := range want {
			if got[id] != c {
				return st, fmt.Errorf("%s: node %d: indexed %d, scan %d", names[i], id, c, got[id])
			}
		}
	}
	if err := net.CheckConsistency(); err != nil {
		return st, fmt.Errorf("indexed network: %w", err)
	}
	if err := scan.Network().CheckConsistency(); err != nil {
		return st, fmt.Errorf("scan network: %w", err)
	}

	// Incremental checker vs full verifier under random recoloring.
	g := net.Graph()
	assign := strats[0].Assignment().Clone()
	checker := toca.NewChecker(g, assign)
	nodes := g.Nodes()
	for step := 0; step < 100 && len(nodes) > 0; step++ {
		u := nodes[rng.Intn(len(nodes))]
		checker.Recolor(u, toca.Color(rng.Intn(8)))
		if checker.Violations() != len(toca.Verify(g, assign)) {
			return st, fmt.Errorf("checker: incremental %d != full %d at step %d",
				checker.Violations(), len(toca.Verify(g, assign)), step)
		}
	}
	return st, nil
}

// errRecodedMismatch marks a certificate failure: an event recoded
// differently on its restricted network than on the full one.
var errRecodedMismatch = errors.New("restricted and full recodings differ")

// sameRecoded reports the first difference between two recoding sets.
func sameRecoded(want, got map[graph.NodeID]toca.Color) error {
	for id, c := range want {
		if g, ok := got[id]; !ok || g != c {
			return fmt.Errorf("%w: node %d to %d on the full network, to %d (recoded %v) on the restricted one",
				errRecodedMismatch, id, c, g, ok)
		}
	}
	for id, c := range got {
		if _, ok := want[id]; !ok {
			return fmt.Errorf("%w: node %d to %d on the restricted network only", errRecodedMismatch, id, c)
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
