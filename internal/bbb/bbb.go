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
package bbb

import (
	"fmt"

	"repro/internal/adhoc"
	"repro/internal/coloring"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// Colorer recolors a conflict graph from scratch; the default is DSATUR.
type Colorer func(coloring.Graph) toca.Assignment

// Strategy is the BBB centralized recoloring baseline. A standalone
// instance (New, NewFrom) owns its network; a shared instance
// (NewShared) reads an engine-owned network and is driven through
// OnDelta.
type Strategy struct {
	net     *adhoc.Network
	assign  toca.Assignment
	colorer Colorer
	shared  bool // network is engine-owned; Apply must not mutate it
}

var _ strategy.Strategy = (*Strategy)(nil)
var _ engine.Subscriber = (*Strategy)(nil)

// New returns a BBB recoder over an empty network using DSATUR.
func New() *Strategy {
	return &Strategy{net: adhoc.New(), assign: make(toca.Assignment), colorer: coloring.DSATUR}
}

// NewWithColorer returns a BBB recoder using a custom centralized
// heuristic (e.g. coloring.RLF) — the heuristic ablation hook.
func NewWithColorer(c Colorer) *Strategy {
	s := New()
	s.colorer = c
	return s
}

// NewFrom returns a BBB recoder adopting an existing network and
// assignment (used directly, not copied).
func NewFrom(net *adhoc.Network, assign toca.Assignment) *Strategy {
	return &Strategy{net: net, assign: assign, colorer: coloring.DSATUR}
}

// NewShared returns a BBB recoder reading an engine-owned network. It
// never mutates the topology; subscribe it to the owning engine and
// drive it through OnDelta.
func NewShared(net *adhoc.Network) *Strategy {
	return &Strategy{net: net, assign: make(toca.Assignment), colorer: coloring.DSATUR, shared: true}
}

// Name implements strategy.Strategy.
func (s *Strategy) Name() string { return "BBB" }

// Network implements strategy.Strategy.
func (s *Strategy) Network() *adhoc.Network { return s.net }

// Assignment implements strategy.Strategy.
func (s *Strategy) Assignment() toca.Assignment { return s.assign }

// SetColor installs an externally computed color (toca.None removes the
// entry). It is the write path the shard coordinator uses so hosted
// strategies can keep internal accounting consistent with external
// assignment mutations.
func (s *Strategy) SetColor(id graph.NodeID, c toca.Color) { s.assign.Set(id, c) }

// Apply implements strategy.Strategy: update the topology (via the
// shared engine decoder), then recolor the whole network centrally.
// Shared instances are driven by their engine and reject direct Apply.
func (s *Strategy) Apply(ev strategy.Event) (strategy.Outcome, error) {
	if s.shared {
		return strategy.Outcome{}, fmt.Errorf("bbb: strategy is engine-hosted; apply events through the engine")
	}
	d, err := engine.Step(s.net, ev)
	if err != nil {
		return strategy.Outcome{}, err
	}
	return s.OnDelta(d)
}

// OnDelta implements engine.Subscriber: recolor the whole network
// centrally, whatever the event was.
func (s *Strategy) OnDelta(d engine.Delta) (strategy.Outcome, error) {
	if d.Event.Kind == strategy.Leave {
		delete(s.assign, d.Event.ID)
	}
	return s.recolorAll(), nil
}

// Join adds a node and recolors everything.
func (s *Strategy) Join(id graph.NodeID, cfg adhoc.Config) (strategy.Outcome, error) {
	return s.Apply(strategy.JoinEvent(id, cfg))
}

// Leave removes a node and recolors everything.
func (s *Strategy) Leave(id graph.NodeID) (strategy.Outcome, error) {
	return s.Apply(strategy.LeaveEvent(id))
}

// Move relocates a node and recolors everything.
func (s *Strategy) Move(id graph.NodeID, pos geom.Point) (strategy.Outcome, error) {
	return s.Apply(strategy.MoveEvent(id, pos))
}

// SetRange changes a node's range and recolors everything.
func (s *Strategy) SetRange(id graph.NodeID, r float64) (strategy.Outcome, error) {
	return s.Apply(strategy.PowerEvent(id, r))
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
