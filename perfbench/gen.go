package main

import (
	"math"
	"math/rand/v2"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
)

// genParams sizes one generated workload stream.
type genParams struct {
	N              int     // base population, node IDs 0..N-1
	ArenaW, ArenaH float64 // arena side lengths
	MinR, MaxR     float64 // transmission ranges drawn uniformly in [MinR, MaxR)
	MaxDisp        float64 // bound of one displacement-walk step (paper §5.3)
	RaiseFactor    float64 // power-raise multiplier (paper §5.2)
}

// denseParams is the paper's node density (n=1000 on a 316×316 arena,
// ranges 20.5–30.5); sparseParams keeps the arena and ranges at 1/5 of
// the population.
func denseParams() genParams {
	return genParams{N: 1000, ArenaW: 316, ArenaH: 316, MinR: 20.5, MaxR: 30.5, MaxDisp: 40, RaiseFactor: 2}
}

func sparseParams() genParams {
	p := denseParams()
	p.N = 200
	return p
}

// Event-mix shares: displacement-walk moves, power changes (raise, then
// the matching revert), and membership changes (join, then the matching
// leave).
const (
	moveShare  = 0.70
	powerShare = 0.10
)

// stream is a generated workload: the base network's joins and the
// stationary event mix that runs on top of it.
type stream struct {
	seed   uint64
	Base   []strategy.Event
	Events []strategy.Event
}

// generate builds count mix events after a base of p.N joins. The mix is
// stationary: moves are reflecting random walks, which keep positions
// uniform on the arena; at most one node is raised at a time and the
// next power event reverts it; at most one extra node is joined at a
// time and the next membership event removes it. Population, mean range
// and mean degree therefore stay where the base network put them, so no
// result depends on how many events a run consumes. The same seed gives
// the same stream.
func generate(seed uint64, p genParams, count int) stream {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	cfgs := make(map[graph.NodeID]adhoc.Config, p.N+1)
	var live []graph.NodeID
	index := make(map[graph.NodeID]int, p.N+1)
	add := func(id graph.NodeID, c adhoc.Config) strategy.Event {
		cfgs[id] = c
		index[id] = len(live)
		live = append(live, id)
		return strategy.JoinEvent(id, c)
	}
	randomCfg := func() adhoc.Config {
		return adhoc.Config{
			Pos:   geom.Point{X: rng.Float64() * p.ArenaW, Y: rng.Float64() * p.ArenaH},
			Range: p.MinR + rng.Float64()*(p.MaxR-p.MinR),
		}
	}

	s := stream{seed: seed, Base: make([]strategy.Event, 0, p.N), Events: make([]strategy.Event, 0, count)}
	for i := 0; i < p.N; i++ {
		s.Base = append(s.Base, add(graph.NodeID(i), randomCfg()))
	}
	raised, extra := graph.NodeID(-1), graph.NodeID(-1)
	baseRange := make([]float64, p.N)
	for i := range baseRange {
		baseRange[i] = cfgs[graph.NodeID(i)].Range
	}
	next := graph.NodeID(p.N)
	for len(s.Events) < count {
		u := rng.Float64()
		switch {
		case u < moveShare:
			id := live[rng.IntN(len(live))]
			c := cfgs[id]
			step, angle := rng.Float64()*p.MaxDisp, rng.Float64()*2*math.Pi
			c.Pos = geom.Point{
				X: fold(c.Pos.X+step*math.Cos(angle), p.ArenaW),
				Y: fold(c.Pos.Y+step*math.Sin(angle), p.ArenaH),
			}
			cfgs[id] = c
			s.Events = append(s.Events, strategy.MoveEvent(id, c.Pos))
		case u < moveShare+powerShare:
			if raised >= 0 {
				c := cfgs[raised]
				c.Range = baseRange[raised]
				cfgs[raised] = c
				s.Events = append(s.Events, strategy.PowerEvent(raised, c.Range))
				raised = -1
				continue
			}
			raised = graph.NodeID(rng.IntN(p.N))
			c := cfgs[raised]
			c.Range = baseRange[raised] * p.RaiseFactor
			cfgs[raised] = c
			s.Events = append(s.Events, strategy.PowerEvent(raised, c.Range))
		default:
			if extra >= 0 {
				last := live[len(live)-1]
				live[index[extra]] = last
				index[last] = index[extra]
				live = live[:len(live)-1]
				delete(index, extra)
				delete(cfgs, extra)
				s.Events = append(s.Events, strategy.LeaveEvent(extra))
				extra = -1
				continue
			}
			extra = next
			next++
			s.Events = append(s.Events, add(extra, randomCfg()))
		}
	}
	return s
}

// fold reflects x back into [0, side] at the borders, so a walk stays
// uniformly distributed instead of piling up on the edges as clamping
// would.
func fold(x, side float64) float64 {
	if x < 0 {
		x = -x
	}
	if x > side {
		x = 2*side - x
	}
	return x
}

// concat returns a fresh slice holding a's events followed by b's.
func concat(a, b []strategy.Event) []strategy.Event {
	return append(append(make([]strategy.Event, 0, len(a)+len(b)), a...), b...)
}
