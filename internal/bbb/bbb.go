// Package bbb implements the centralized baseline the paper calls BBB
// (Battiti, Bertossi, Bonuccelli [7]): at every reconfiguration event the
// entire network is recolored from scratch by a centralized heuristic.
//
// Substitution note (see DESIGN.md): the exact heuristic of [7] is not
// reproduced in the paper, so this package recolors the TOCA conflict
// graph with DSATUR (Brelaz [9]). That preserves the two properties the
// paper's evaluation relies on: a near-optimal maximum color index (BBB
// is the lower envelope in the color plots) and a very large number of
// recodings per event, because nodes receive whatever color the global
// heuristic picks with no regard for their previous one (BBB is the
// upper envelope in the recoding plots).
//
// The Strategy is an engine.Subscriber: its engine owns the network and
// applies each topology change, then OnDelta recolors.
package bbb

import (
	"repro/internal/adhoc"
	"repro/internal/coloring"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// Strategy is the BBB centralized recoloring baseline. It reads an
// engine-owned network and is driven through OnDelta; it never mutates
// the topology.
type Strategy struct {
	net    *adhoc.Network
	assign toca.Assignment
	// colorer recolors a conflict graph from scratch: DSATUR, or another
	// heuristic in the in-package ablation bench.
	colorer func(coloring.Graph) toca.Assignment
}

var _ strategy.Strategy = (*Strategy)(nil)
var _ engine.Subscriber = (*Strategy)(nil)

// New returns a BBB recoder (DSATUR) reading net (owned by the engine
// the recoder is subscribed to) and adopting assign, used directly, not
// copied; a nil assign starts empty.
func New(net *adhoc.Network, assign toca.Assignment) *Strategy {
	if assign == nil {
		assign = make(toca.Assignment)
	}
	return &Strategy{net: net, assign: assign, colorer: coloring.DSATUR}
}

// Name implements strategy.Strategy.
func (s *Strategy) Name() string { return "BBB" }

// Assignment implements strategy.Strategy.
func (s *Strategy) Assignment() toca.Assignment { return s.assign }

// SetColor installs an externally computed color (toca.None removes the
// entry). It is the write path the shard coordinator uses so hosted
// strategies can keep internal accounting consistent with external
// assignment mutations.
func (s *Strategy) SetColor(id graph.NodeID, c toca.Color) { s.assign.Set(id, c) }

// OnDelta implements engine.Subscriber: recolor the whole network
// centrally, whatever the event was.
func (s *Strategy) OnDelta(d engine.Delta) (strategy.Outcome, error) {
	if d.Event.Kind == strategy.Leave {
		delete(s.assign, d.Event.ID)
	}
	return s.recolorAll(), nil
}

// recolorAll runs the colorer over the current conflict graph and
// reports every changed node as recoded. The colorer reads the network's
// conflict index in place; the network keeps that index current on every
// edge flip, so an event costs one coloring, not a conflict-graph build.
func (s *Strategy) recolorAll() strategy.Outcome {
	fresh := s.colorer(s.net.ConflictGraph())
	recoded := make(map[graph.NodeID]toca.Color)
	for id, c := range fresh {
		if s.assign[id] != c {
			recoded[id] = c
		}
	}
	s.assign = fresh
	return strategy.Outcome{Recoded: recoded, MaxColor: fresh.MaxColor()}
}
