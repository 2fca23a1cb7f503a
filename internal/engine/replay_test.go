package engine

import (
	"repro/internal/adhoc"
	"repro/internal/strategy"
)

// Replay reconstructs a run from an event log: it builds a fresh engine,
// asks mk for the subscribers to host on its network (mk may be nil for
// a topology-only replay), and applies every event. This is the
// event-sourcing contract: an engine is fully determined by its log.
func Replay(log []strategy.Event, mk func(net *adhoc.Network) []Subscriber) (*Engine, error) {
	e := New()
	if mk != nil {
		for _, s := range mk(e.net) {
			e.Subscribe(s)
		}
	}
	for _, ev := range log {
		if _, err := e.Apply(ev); err != nil {
			return nil, err
		}
	}
	return e, nil
}
