package engine

import (
	"fmt"
	"time"

	"repro/internal/adhoc"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// Delta is the strategy-independent decoding of one reconfiguration
// event: everything the recoding strategies need that does not depend on
// their private code assignments, computed exactly once per event.
type Delta struct {
	// Seq is the event's sequence number in its engine, counted from 0
	// (Step itself leaves it 0; the engine sets it).
	Seq int
	// Event is the decoded event.
	Event strategy.Event
	// Part is the Fig 2 partition (without 4n) of the other nodes
	// relative to the event configuration, captured before the topology
	// change. Valid for Join and Move events.
	Part adhoc.Partition
	// PrevCfg is the node's configuration before the event. Valid for
	// Leave, Move, and PowerChange events.
	PrevCfg adhoc.Config
	// Increase reports whether a PowerChange raised the range.
	Increase bool
	// ConflictBefore and ConflictAfter are the node's CA1/CA2 conflict
	// neighborhoods before and after the topology change. Valid for
	// PowerChange events (the CP extension needs the set difference).
	ConflictBefore, ConflictAfter map[graph.NodeID]struct{}
}

// Step decodes one event against net, applies the topology change, and
// returns the Delta. It is the one decoder: the Engine calls it for the
// network it owns, and offline replays that time decode and recode
// separately call it directly.
func Step(net *adhoc.Network, ev strategy.Event) (Delta, error) {
	d := Delta{Event: ev}
	switch ev.Kind {
	case strategy.Join:
		if net.Has(ev.ID) {
			return d, fmt.Errorf("engine: node %d already in network", ev.ID)
		}
		d.Part = net.LocalPartitionFor(ev.ID, ev.Cfg)
		if err := net.Join(ev.ID, ev.Cfg); err != nil {
			return d, err
		}
	case strategy.Leave:
		cfg, ok := net.Config(ev.ID)
		if !ok {
			return d, fmt.Errorf("engine: node %d not in network", ev.ID)
		}
		d.PrevCfg = cfg
		if err := net.Leave(ev.ID); err != nil {
			return d, err
		}
	case strategy.Move:
		cfg, ok := net.Config(ev.ID)
		if !ok {
			return d, fmt.Errorf("engine: node %d not in network", ev.ID)
		}
		d.PrevCfg = cfg
		dst := cfg
		dst.Pos = ev.Pos
		d.Part = net.LocalPartitionFor(ev.ID, dst)
		if err := net.Move(ev.ID, ev.Pos); err != nil {
			return d, err
		}
	case strategy.PowerChange:
		cfg, ok := net.Config(ev.ID)
		if !ok {
			return d, fmt.Errorf("engine: node %d not in network", ev.ID)
		}
		d.PrevCfg = cfg
		d.Increase = ev.R > cfg.Range
		if d.Increase {
			// Only increases create constraints (CP reads the set
			// difference); decreases never recode, so skip both captures.
			d.ConflictBefore = net.ConflictNeighbors(ev.ID)
		}
		if err := net.SetRange(ev.ID, ev.R); err != nil {
			return d, err
		}
		if d.Increase {
			d.ConflictAfter = net.ConflictNeighbors(ev.ID)
		}
	default:
		return d, fmt.Errorf("engine: unknown event kind %v", ev.Kind)
	}
	return d, nil
}

// Subscriber is a recoding strategy hosted on the engine: it shares the
// engine's network read-view and restores its private assignment's
// CA1/CA2 validity from each event's Delta. Subscribers must not mutate
// the shared topology.
type Subscriber interface {
	// Name identifies the subscriber in results ("Minim", "CP", "BBB").
	Name() string
	// OnDelta performs the subscriber's recoding for one decoded event.
	OnDelta(Delta) (strategy.Outcome, error)
}

// Engine owns exactly one adhoc.Network per simulation run, decodes each
// reconfiguration event once, fans the resulting Delta out to every
// subscriber, and numbers the event.
type Engine struct {
	net  *adhoc.Network
	subs []Subscriber
	seq  int // events applied so far
	// outs is Apply's result buffer, reused from event to event.
	outs []strategy.Outcome
	// recodeObs, when attached, times each subscriber's OnDelta —
	// "recode microseconds by strategy" on the serve dashboards. nil
	// (the default) costs the fanout nothing.
	recodeObs []*obs.Histogram
}

// New returns an engine over a fresh spatially indexed network.
func New() *Engine {
	return &Engine{net: adhoc.New()}
}

// Adopt returns an engine over an existing network (used directly, not
// copied). The caller relinquishes topology mutation to the engine.
func Adopt(net *adhoc.Network) *Engine {
	return &Engine{net: net}
}

// Network exposes the shared replica. Subscribers and callers must treat
// it as read-only; all topology mutation flows through Apply.
func (e *Engine) Network() *adhoc.Network { return e.net }

// Subscribe attaches a subscriber. Subscribers attached mid-run see only
// subsequent events; replay the applied events into a fresh engine to
// bring one up to date.
func (e *Engine) Subscribe(s Subscriber) { e.subs = append(e.subs, s) }

// InstrumentRecode attaches per-subscriber recode-latency histograms,
// aligned with the subscribers in attach order (missing tail entries
// are simply not timed). Call before Apply traffic; nil detaches.
func (e *Engine) InstrumentRecode(hs []*obs.Histogram) { e.recodeObs = hs }

// Seq returns the number of events applied so far (the next sequence
// number). Sessions use it to mark phase boundaries.
func (e *Engine) Seq() int { return e.seq }

// Apply decodes one event against the shared network (once), numbers
// it, and invokes every subscriber with the Delta. The returned
// outcomes align with the subscribers in attach order; the slice is the
// engine's own and stays valid only until the next Apply, so a caller
// that keeps outcomes must copy them. On a topology error the event is
// not numbered and no subscriber runs; on a subscriber error the
// topology change and sequence number stand (the network stays
// consistent) and the error is returned.
func (e *Engine) Apply(ev strategy.Event) ([]strategy.Outcome, error) {
	d, err := Step(e.net, ev)
	if err != nil {
		return nil, err
	}
	d.Seq = e.seq
	e.seq++
	if cap(e.outs) < len(e.subs) {
		e.outs = make([]strategy.Outcome, len(e.subs))
	}
	outs := e.outs[:len(e.subs)]
	clear(outs)
	for i, s := range e.subs {
		var t0 time.Time
		timed := i < len(e.recodeObs) && e.recodeObs[i] != nil
		if timed {
			t0 = time.Now()
		}
		out, err := s.OnDelta(d)
		if timed {
			e.recodeObs[i].ObserveSince(t0)
		}
		if err != nil {
			return outs, fmt.Errorf("engine: subscriber %s: %w", s.Name(), err)
		}
		outs[i] = out
	}
	return outs, nil
}
