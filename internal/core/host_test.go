package core

import (
	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// host is a Minim recoder on its own engine: the tests drive events
// through the engine, the only way a recoder runs.
type host struct {
	*Recoder
	eng *engine.Engine
}

func newHost() *host { return hostOn(adhoc.New(), nil) }

// hostOn hosts a recoder adopting net and assign.
func hostOn(net *adhoc.Network, assign toca.Assignment) *host {
	eng := engine.Adopt(net)
	r := New(net, assign)
	eng.Subscribe(r)
	return &host{Recoder: r, eng: eng}
}

func (h *host) Network() *adhoc.Network { return h.eng.Network() }

// Apply runs one event through the engine and returns the recoder's
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
