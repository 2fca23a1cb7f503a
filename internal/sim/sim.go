// Package sim drives recoding strategies through event scripts and
// snapshots the paper's two metrics (total recodings, maximum color
// index) at phase boundaries. It is the glue between the workload
// generators and the experiment harness.
//
// Since the engine refactor a run hosts all of its strategies on one
// shared incremental network engine (internal/engine): each event is
// decoded once and its delta fanned out. The EngineSession is the one
// way to run a script: the event-sourced pipeline the figure sweeps, the
// tools and the examples use, for one strategy or several.
//
// The name table (specs) is the single place a strategy name becomes an
// instance; serve and the command-line tools all read it.
package sim

import (
	"fmt"

	"repro/internal/adhoc"
	"repro/internal/bbb"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/engine"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// Snapshot captures cumulative metrics at a point in a simulation.
type Snapshot struct {
	TotalRecodings int
	MaxColor       toca.Color
	Nodes          int
}

// StrategyName identifies one of the three competing strategies.
type StrategyName string

// The three strategies of the paper's evaluation, plus the strict-move
// CP variant (the literal leave-then-join reading of [3], used by the
// movement ablation).
const (
	Minim    StrategyName = "Minim"
	CP       StrategyName = "CP"
	BBB      StrategyName = "BBB"
	CPStrict StrategyName = "CP-strict"
)

// AllStrategies lists the paper's three competitors in plot order.
var AllStrategies = []StrategyName{Minim, CP, BBB}

// Hosted is a strategy instance as its hosts drive it: an engine
// subscriber exposing its private code assignment.
type Hosted interface {
	engine.Subscriber
	Assignment() toca.Assignment
}

// Spec is how to host one named strategy.
type Spec struct {
	// Local marks the strategy's recoding as interference-local: its
	// reads and writes for an event stay within the 3r ball around the
	// event that internal/core's package doc derives from the paper's
	// Thm 4.1.10. cmd/verify checks the certificate on every local
	// strategy; BBB's global recolor is not local.
	Local bool
	// New builds an instance reading net, which the subscribing engine
	// owns, and adopting assign (used directly, not copied; nil starts
	// empty).
	New func(net *adhoc.Network, assign toca.Assignment) Hosted
}

// specs is the one name table every host reads.
var specs = map[StrategyName]Spec{
	Minim: {Local: true, New: func(net *adhoc.Network, a toca.Assignment) Hosted { return core.New(net, a) }},
	CP:    {Local: true, New: func(net *adhoc.Network, a toca.Assignment) Hosted { return cp.New(net, a) }},
	CPStrict: {Local: true, New: func(net *adhoc.Network, a toca.Assignment) Hosted {
		s := cp.New(net, a)
		s.StrictMove = true
		return s
	}},
	BBB: {Local: false, New: func(net *adhoc.Network, a toca.Assignment) Hosted { return bbb.New(net, a) }},
}

// SpecOf resolves a strategy name.
func SpecOf(name StrategyName) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("sim: unknown strategy %q", name)
	}
	return s, nil
}

// NewSharedStrategy constructs an instance of the named strategy with an
// empty assignment, reading net: subscribe it to the engine that owns
// net.
func NewSharedStrategy(name StrategyName, net *adhoc.Network) (Hosted, error) {
	spec, err := SpecOf(name)
	if err != nil {
		return nil, err
	}
	return spec.New(net, nil), nil
}

// entry is one strategy hosted on an EngineSession.
type entry struct {
	name  StrategyName
	strat Hosted
	m     *strategy.Metrics
}

// EngineSession is the event-sourced session pipeline: one engine-owned
// network replica, any number of subscribed strategies, per-strategy
// metric accounting, and phase marks into the engine's event log.
type EngineSession struct {
	eng      *engine.Engine
	entries  []entry
	validate bool
	phases   []int // log offsets at Mark() calls
}

// NewEngineSession hosts fresh instances of the named strategies on one
// new engine. When validate is set, CA1/CA2 are re-verified for every
// strategy after every event (slow; meant for tests and the verify
// tool).
func NewEngineSession(names []StrategyName, validate bool) (*EngineSession, error) {
	eng := engine.New()
	s := &EngineSession{eng: eng, validate: validate}
	for _, name := range names {
		st, err := NewSharedStrategy(name, eng.Network())
		if err != nil {
			return nil, err
		}
		eng.Subscribe(st)
		s.entries = append(s.entries, entry{name: name, strat: st, m: strategy.NewMetrics()})
	}
	return s, nil
}

// Engine exposes the underlying engine (read-only use).
func (s *EngineSession) Engine() *engine.Engine { return s.eng }

// Mark records the current log position as a phase boundary and returns
// its index.
func (s *EngineSession) Mark() int {
	s.phases = append(s.phases, s.eng.Seq())
	return len(s.phases) - 1
}

// Apply runs one phase of events through the engine: each event is
// decoded once and fanned out to every strategy.
func (s *EngineSession) Apply(events []strategy.Event) error {
	for i, ev := range events {
		outs, err := s.eng.Apply(ev)
		if err != nil {
			return fmt.Errorf("sim: event %d: %w", i, err)
		}
		for j := range s.entries {
			s.entries[j].m.Record(ev.Kind, outs[j])
		}
		if s.validate {
			g := s.eng.Network().Graph()
			for _, e := range s.entries {
				if vs := toca.Verify(g, e.strat.Assignment()); len(vs) > 0 {
					return fmt.Errorf("sim: %s: event %d (%v on node %d) left %d violations, first: %v",
						e.name, i, ev.Kind, ev.ID, len(vs), vs[0])
				}
			}
		}
	}
	return nil
}

// StrategyOf returns the hosted instance of the named strategy.
func (s *EngineSession) StrategyOf(name StrategyName) (Hosted, bool) {
	for _, e := range s.entries {
		if e.name == name {
			return e.strat, true
		}
	}
	return nil, false
}

// MetricsOf returns the metric accumulator of the named strategy.
func (s *EngineSession) MetricsOf(name StrategyName) (*strategy.Metrics, bool) {
	for _, e := range s.entries {
		if e.name == name {
			return e.m, true
		}
	}
	return nil, false
}

// SnapshotOf reports the cumulative metrics of the named strategy.
func (s *EngineSession) SnapshotOf(name StrategyName) (Snapshot, bool) {
	for _, e := range s.entries {
		if e.name == name {
			return Snapshot{
				TotalRecodings: e.m.TotalRecodings,
				MaxColor:       e.m.MaxColor,
				Nodes:          s.eng.Network().Size(),
			}, true
		}
	}
	return Snapshot{}, false
}

// PhaseResult reports the snapshots around a two-phase run.
type PhaseResult struct {
	Name      StrategyName
	AfterBase Snapshot
	Final     Snapshot
}

// DeltaRecodings is the paper's Δ(total number of recodings): recodings
// attributable to the second phase.
func (p PhaseResult) DeltaRecodings() int {
	return p.Final.TotalRecodings - p.AfterBase.TotalRecodings
}

// DeltaMaxColor is the paper's Δ(max color index assigned).
func (p PhaseResult) DeltaMaxColor() int {
	return int(p.Final.MaxColor) - int(p.AfterBase.MaxColor)
}

// RunPhases drives fresh instances of the named strategies through the
// base script and then the phase script, reporting snapshots at both
// boundaries. Every strategy sees the identical event sequence, decoded
// exactly once by one shared engine-owned network replica.
func RunPhases(names []StrategyName, base, phase []strategy.Event, validate bool) ([]PhaseResult, error) {
	sess, err := NewEngineSession(names, validate)
	if err != nil {
		return nil, err
	}
	if err := sess.Apply(base); err != nil {
		return nil, fmt.Errorf("base phase: %w", err)
	}
	sess.Mark()
	afterBase := make([]Snapshot, len(names))
	for i, name := range names {
		afterBase[i], _ = sess.SnapshotOf(name)
	}
	if err := sess.Apply(phase); err != nil {
		return nil, fmt.Errorf("second phase: %w", err)
	}
	sess.Mark()
	results := make([]PhaseResult, 0, len(names))
	for i, name := range names {
		final, _ := sess.SnapshotOf(name)
		results = append(results, PhaseResult{
			Name:      name,
			AfterBase: afterBase[i],
			Final:     final,
		})
	}
	return results, nil
}

// Run drives a single-phase script (base only) for each strategy.
func Run(names []StrategyName, events []strategy.Event, validate bool) ([]PhaseResult, error) {
	return RunPhases(names, events, nil, validate)
}
