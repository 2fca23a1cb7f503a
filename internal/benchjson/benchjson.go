// Package benchjson holds the benchmark bodies behind cmd/benchjson's
// observability-overhead gate: the serve apply and replication ship
// paths with and without the internal/obs instrumentation, plus the
// trace record and merge costs. Each exported function is a plain
// `func(*testing.B)` so cmd/benchjson can drive it with
// testing.Benchmark and serialize the results into BENCH_obs.json.
package benchjson

import (
	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/xrand"
)

// benchEvents returns a deterministic mixed event stream shaped like
// the simulation workload: joins, moves, power changes, and leaves over
// a bounded id space, with realistic float coordinates.
func benchEvents(n int) []strategy.Event {
	rng := xrand.New(42)
	evs := make([]strategy.Event, 0, n)
	next := graph.NodeID(1)
	live := []graph.NodeID{}
	for len(evs) < n {
		switch {
		case len(live) < 8:
			cfg := adhoc.Config{
				Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
				Range: rng.Uniform(20.5, 30.5),
			}
			evs = append(evs, strategy.JoinEvent(next, cfg))
			live = append(live, next)
			next++
		default:
			id := live[rng.Intn(len(live))]
			switch rng.Intn(4) {
			case 0:
				cfg := adhoc.Config{
					Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
					Range: rng.Uniform(20.5, 30.5),
				}
				evs = append(evs, strategy.JoinEvent(next, cfg))
				live = append(live, next)
				next++
			case 1:
				evs = append(evs, strategy.MoveEvent(id, geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}))
			case 2:
				evs = append(evs, strategy.PowerEvent(id, rng.Uniform(20.5, 30.5)))
			case 3:
				evs = append(evs, strategy.LeaveEvent(id))
				for i, l := range live {
					if l == id {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		}
	}
	return evs
}

// shipBatchEvents is the events-per-batch of the ship benches, a
// typical busy window (the cluster caps one request at 512).
const shipBatchEvents = 64

// shipFollowers is the fan-out the ship benches model.
const shipFollowers = 3
