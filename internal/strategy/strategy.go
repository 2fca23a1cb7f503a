// Package strategy defines the common interface the three recoding
// strategies (Minim, CP, BBB) implement, the event vocabulary of the
// paper's section 2 (join, leave, move, power increase, power decrease),
// and the metric accounting used by every experiment: total number of
// recodings and maximum color index assigned in the network.
package strategy

import (
	"fmt"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/toca"
)

// EventKind enumerates the paper's reconfiguration events.
type EventKind int

// Event kinds.
const (
	Join EventKind = iota + 1
	Leave
	Move
	PowerChange // covers both increase and decrease of the range
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Move:
		return "move"
	case PowerChange:
		return "power"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a single network reconfiguration.
type Event struct {
	Kind EventKind
	ID   graph.NodeID
	Cfg  adhoc.Config // Join: full configuration
	Pos  geom.Point   // Move: destination
	R    float64      // PowerChange: new range
}

// JoinEvent constructs a join event.
func JoinEvent(id graph.NodeID, cfg adhoc.Config) Event {
	return Event{Kind: Join, ID: id, Cfg: cfg}
}

// LeaveEvent constructs a leave event.
func LeaveEvent(id graph.NodeID) Event {
	return Event{Kind: Leave, ID: id}
}

// MoveEvent constructs a move event.
func MoveEvent(id graph.NodeID, pos geom.Point) Event {
	return Event{Kind: Move, ID: id, Pos: pos}
}

// PowerEvent constructs a power (range) change event.
func PowerEvent(id graph.NodeID, newRange float64) Event {
	return Event{Kind: PowerChange, ID: id, R: newRange}
}

// Outcome reports what a strategy did in response to one event.
type Outcome struct {
	// Recoded maps each node whose code changed (including a first
	// assignment) to its new code.
	Recoded map[graph.NodeID]toca.Color
	// MaxColor is the maximum color index assigned anywhere in the
	// network after the event.
	MaxColor toca.Color
}

// Recodings returns the number of nodes recoded by the event.
func (o Outcome) Recodings() int { return len(o.Recoded) }

// Strategy is a dynamic TOCA recoding strategy as its readers see it:
// a name and a code assignment that the strategy keeps CA1/CA2-valid
// after every event. Strategies are hosted on an engine (package
// engine), which owns the network and hands each strategy the decoded
// event; they never own or mutate a network themselves.
type Strategy interface {
	// Name identifies the strategy in experiment output ("Minim", "CP",
	// "BBB").
	Name() string
	// Assignment returns the current code assignment (read-only for
	// callers).
	Assignment() toca.Assignment
}

// Metrics accumulates the paper's two performance metrics over a sequence
// of events.
type Metrics struct {
	Events          int
	TotalRecodings  int
	MaxColor        toca.Color // current max color index in the network
	PeakMaxColor    toca.Color // largest max color ever observed
	RecodingsByKind map[EventKind]int
}

// NewMetrics returns an empty metric accumulator.
func NewMetrics() *Metrics {
	return &Metrics{RecodingsByKind: make(map[EventKind]int)}
}

// Record folds one event outcome into the totals.
func (m *Metrics) Record(kind EventKind, o Outcome) {
	m.Events++
	m.TotalRecodings += o.Recodings()
	m.MaxColor = o.MaxColor
	if o.MaxColor > m.PeakMaxColor {
		m.PeakMaxColor = o.MaxColor
	}
	m.RecodingsByKind[kind] += o.Recodings()
}
