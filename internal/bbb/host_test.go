package bbb

import (
	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
)

// host is a BBB recoder on its own engine: the tests drive events
// through the engine, the only way a strategy runs.
type host struct {
	*Strategy
	eng *engine.Engine
}

func newHost() *host {
	eng := engine.New()
	s := New(eng.Network(), nil)
	eng.Subscribe(s)
	return &host{Strategy: s, eng: eng}
}

func (h *host) Network() *adhoc.Network { return h.eng.Network() }

// Apply runs one event through the engine and returns the strategy's
// outcome.
func (h *host) Apply(ev strategy.Event) (strategy.Outcome, error) {
	outs, err := h.eng.Apply(ev)
	if err != nil {
		return strategy.Outcome{}, err
	}
	return outs[0], nil
}

func (h *host) Join(id graph.NodeID, cfg adhoc.Config) (strategy.Outcome, error) {
	return h.Apply(strategy.JoinEvent(id, cfg))
}

func (h *host) Leave(id graph.NodeID) (strategy.Outcome, error) {
	return h.Apply(strategy.LeaveEvent(id))
}

func (h *host) Move(id graph.NodeID, pos geom.Point) (strategy.Outcome, error) {
	return h.Apply(strategy.MoveEvent(id, pos))
}

func (h *host) SetRange(id graph.NodeID, r float64) (strategy.Outcome, error) {
	return h.Apply(strategy.PowerEvent(id, r))
}
