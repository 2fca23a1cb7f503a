// Package batch parallelizes independent join events, generalizing the
// paper's Theorem 4.1.10 ("the algorithm supports simultaneous additions
// of new nodes when any two of them are at least 5 hops apart") to the
// sequential engine: joins whose constraint neighborhoods are provably
// disjoint are grouped into waves, each wave's recoding proposals are
// computed concurrently against the pre-wave state, and the proposals are
// committed together.
//
// Independence is certified geometrically. With Rmax an upper bound on
// every transmission range in the network, a join at position p reads
// colors only within radius
//
//	readR = max(3*Rmax, joinRange + Rmax)
//
// of p (members of 1n ∪ 2n lie within Rmax; their conflict neighbors
// within 3*Rmax; the joiner's own constraints within joinRange + Rmax),
// and recolors only nodes within Rmax (plus the joiner itself). Two joins
// whose read disks are disjoint therefore neither read nor write any
// common node, so executing them against the pre-wave snapshot equals
// every sequential interleaving. Non-join events act as barriers.
package batch

import (
	"fmt"
	"sync"

	"repro/internal/adhoc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// Wave is a group of pairwise-independent events (all joins), or a
// single barrier event of any kind.
type Wave struct {
	Events  []strategy.Event
	Barrier bool // true for a singleton non-join event
}

// Plan splits a script into waves. Joins are packed greedily into the
// current wave while pairwise independent (and with distinct IDs); any
// non-join event, or a join conflicting with the current wave, seals the
// wave. rmax must upper-bound every range in the network and script;
// Plan returns an error if a join exceeds it (the certificate would be
// unsound).
func Plan(events []strategy.Event, rmax float64) ([]Wave, error) {
	var waves []Wave
	var cur []strategy.Event

	flush := func() {
		if len(cur) > 0 {
			waves = append(waves, Wave{Events: cur})
			cur = nil
		}
	}

	readR := func(ev strategy.Event) float64 {
		r := 3 * rmax
		if own := ev.Cfg.Range + rmax; own > r {
			r = own
		}
		return r
	}

	for _, ev := range events {
		if ev.Kind != strategy.Join {
			flush()
			waves = append(waves, Wave{Events: []strategy.Event{ev}, Barrier: true})
			continue
		}
		if ev.Cfg.Range > rmax {
			return nil, fmt.Errorf("batch: join of %d has range %g > rmax %g", ev.ID, ev.Cfg.Range, rmax)
		}
		independent := true
		for _, other := range cur {
			if other.ID == ev.ID ||
				ev.Cfg.Pos.DistanceTo(other.Cfg.Pos) <= readR(ev)+readR(other) {
				independent = false
				break
			}
		}
		if !independent {
			flush()
		}
		cur = append(cur, ev)
	}
	flush()
	return waves, nil
}

// proposal is one join's precomputed recoding.
type proposal struct {
	ev        strategy.Event
	newColors map[graph.NodeID]toca.Color
}

// Apply executes a script on an engine that hosts rec as its single
// Minim subscriber, running each wave's proposals concurrently across at
// most workers goroutines (values < 1 mean 1), and returns the total
// number of recodings. Barrier events go through the engine's Step and
// rec's OnDelta; independent join waves are proposed in parallel
// against the engine's read-view and committed via CommitPrepared, so
// every event lands in the engine log. The result is identical to
// applying the script event by event through the engine. It errors if
// the engine hosts any other subscriber (it would miss the wave
// commits).
func Apply(eng *engine.Engine, rec *core.Recoder, events []strategy.Event, workers int) (int, error) {
	subs := eng.Subscribers()
	if len(subs) != 1 {
		return 0, fmt.Errorf("batch: engine hosts %d subscribers, want exactly the recoder", len(subs))
	}
	if s, ok := subs[0].(*core.Recoder); !ok || s != rec {
		return 0, fmt.Errorf("batch: engine's subscriber is not the given recoder")
	}
	return run(eng, rec, events, workers)
}

// run plans the script into waves and executes them: barriers and
// singleton waves go through Step + the recoder's OnDelta; multi-join
// waves are proposed in parallel and committed through the engine.
func run(eng *engine.Engine, r *core.Recoder, events []strategy.Event, workers int) (int, error) {
	if workers < 1 {
		workers = 1
	}
	// rmax must bound the ranges currently present plus the script's:
	// use the exact current maximum (one O(n) scan per script), not the
	// network's monotone-ever bound — after a large-range node leaves,
	// the monotone bound would permanently inflate the interference
	// radius and serialize genuinely independent joins.
	net := eng.Network()
	rmax := 0.0
	for _, id := range net.Nodes() {
		if cfg, ok := net.Config(id); ok && cfg.Range > rmax {
			rmax = cfg.Range
		}
	}
	for _, ev := range events {
		if ev.Kind == strategy.Join && ev.Cfg.Range > rmax {
			rmax = ev.Cfg.Range
		}
		if ev.Kind == strategy.PowerChange && ev.R > rmax {
			rmax = ev.R
		}
	}
	waves, err := Plan(events, rmax)
	if err != nil {
		return 0, err
	}

	recodings := 0
	for _, w := range waves {
		if w.Barrier || len(w.Events) == 1 {
			d, err := eng.CommitPrepared(w.Events[0], 1)
			if err != nil {
				return recodings, err
			}
			out, err := r.OnDelta(d)
			if err != nil {
				return recodings, err
			}
			recodings += out.Recodings()
			continue
		}
		n, err := applyWave(eng, r, w.Events, workers)
		if err != nil {
			return recodings, err
		}
		recodings += n
	}
	return recodings, nil
}

// applyWave computes every join's proposal against the pre-wave state in
// parallel, then commits them through the engine.
func applyWave(eng *engine.Engine, r *core.Recoder, joins []strategy.Event, workers int) (int, error) {
	net := eng.Network()
	assign := r.Assignment()

	proposals := make([]proposal, len(joins))
	errs := make([]error, len(joins))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, ev := range joins {
		wg.Add(1)
		go func(i int, ev strategy.Event) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			proposals[i], errs[i] = propose(net, assign, ev)
		}(i, ev)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	// Commit: physical join (through the engine, so the event is logged)
	// plus the precomputed colors. Disjointness guarantees no two
	// proposals touch the same node.
	recodings := 0
	for _, p := range proposals {
		if _, err := eng.CommitPrepared(p.ev, 1); err != nil {
			return recodings, err
		}
		for id, c := range p.newColors {
			if assign[id] != c {
				recodings++
			}
			// Install through the recoder so its max-color accumulator
			// tracks the wave's writes.
			r.SetColor(id, c)
		}
	}
	return recodings, nil
}

// propose computes one join's recoding against a read-only view: the
// partition at the join position, each V1 member's external forbidden
// set, and the shared matching solver. It must not mutate net or assign.
func propose(net *adhoc.Network, assign toca.Assignment, ev strategy.Event) (proposal, error) {
	if net.Has(ev.ID) {
		return proposal{}, fmt.Errorf("batch: node %d already joined", ev.ID)
	}
	part := net.LocalPartitionFor(ev.ID, ev.Cfg)
	inOrBoth := part.InOrBoth()
	v1 := append(append([]graph.NodeID{}, inOrBoth...), ev.ID)
	excl := make(map[graph.NodeID]struct{}, len(v1))
	for _, u := range v1 {
		excl[u] = struct{}{}
	}
	g := net.Graph()
	old := make(map[graph.NodeID]toca.Color, len(v1))
	forb := make(map[graph.NodeID]toca.ColorSet, len(v1))
	for _, u := range inOrBoth {
		old[u] = assign[u]
		forb[u] = toca.Forbidden(g, assign, u, excl)
	}
	// The joiner's constraints: colors of its would-be out-neighbors and
	// of their other in-neighbors (the graph does not contain the joiner
	// yet, so collect them from the partition).
	joinerForb := toca.NewColorSet()
	for _, lst := range [][]graph.NodeID{part.Out, part.Both} {
		for _, w := range lst {
			if c := assign[w]; c != toca.None {
				if _, inV1 := excl[w]; !inV1 {
					joinerForb.Add(c)
				}
			}
			g.ForEachIn(w, func(x graph.NodeID) {
				if _, inV1 := excl[x]; !inV1 {
					joinerForb.Add(assign[x])
				}
			})
		}
	}
	old[ev.ID] = toca.None
	forb[ev.ID] = joinerForb
	return proposal{ev: ev, newColors: core.SolveWeighted(v1, old, forb, 3, 1)}, nil
}
