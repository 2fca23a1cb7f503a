package shard

import (
	"repro/internal/sim"
	"repro/internal/strategy"
)

// Replay reconstructs a run deterministically from a total-order event
// log (a prior run's Log()) under the same configuration and strategies: the
// routing decisions, shard logs, border lane order, and final state are
// all pure functions of the log. The returned coordinator is synced;
// callers must Close it.
func Replay(log []strategy.Event, cfg Config, names []sim.StrategyName) (*Coordinator, error) {
	c, err := New(cfg, names)
	if err != nil {
		return nil, err
	}
	if err := c.Apply(log); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.sync(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
