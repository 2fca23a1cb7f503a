package repro

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// host1000 returns an engine over net hosting the named strategies,
// with the constant-density 1000-node join base (seed 7) applied.
func host1000(net *adhoc.Network, names ...sim.StrategyName) (*engine.Engine, error) {
	eng := engine.Adopt(net)
	for _, name := range names {
		st, err := sim.NewSharedStrategy(name, net)
		if err != nil {
			return nil, err
		}
		eng.Subscribe(st)
	}
	p := workload.Defaults()
	p.N = 1000
	p.ArenaW, p.ArenaH = bench1000Arena, bench1000Arena
	return eng, applyAll(eng, workload.JoinScript(7, p))
}

// applyAll applies a script of events, stopping at the first error.
func applyAll(eng *engine.Engine, events []strategy.Event) error {
	for _, ev := range events {
		if _, err := eng.Apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// join1000 draws the i-th fresh joiner of the n=1000 event list.
func join1000(rng *xrand.RNG, i int) (graph.NodeID, adhoc.Config) {
	return graph.NodeID(2000 + i), adhoc.Config{
		Pos:   geom.Point{X: rng.Uniform(0, bench1000Arena), Y: rng.Uniform(0, bench1000Arena)},
		Range: rng.Uniform(20.5, 30.5),
	}
}

// move1000 draws the next move of a base node in the n=1000 event list.
func move1000(rng *xrand.RNG) strategy.Event {
	id := graph.NodeID(rng.Intn(1000))
	return strategy.MoveEvent(id, geom.Point{X: rng.Uniform(0, bench1000Arena), Y: rng.Uniform(0, bench1000Arena)})
}

// Allocation ceilings for one engine-hosted event at n=1000: a fixed
// seed and a fixed event list (50 fresh joins, or 50 moves of base
// nodes), measured by testing.AllocsPerRun. Each ceiling is the largest
// of five measured runs plus 2, because identical runs can differ by
// one allocation (map-hash variance). A ceiling may be lowered, never
// raised. allocCeilStepMove and allocCeilStepJoin cover engine.Step
// alone: the decode and topology change of one move or join, with no
// strategy hosted.
const (
	allocCeilMinimJoin = 22
	allocCeilMinimMove = 12
	allocCeilCPJoin    = 18
	allocCeilCPMove    = 8
	allocCeilStepMove  = 5
	allocCeilStepJoin  = 15
)

// allocsPerEvent hosts names on a fresh n=1000 engine and reports the
// mean allocations of apply over 50 runs.
func allocsPerEvent(t *testing.T, apply func(*engine.Engine, *xrand.RNG, int) error, names ...sim.StrategyName) float64 {
	t.Helper()
	eng, err := host1000(adhoc.New(), names...)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	i := 0
	var failed error
	allocs := testing.AllocsPerRun(50, func() {
		if err := apply(eng, rng, i); err != nil && failed == nil {
			failed = err
		}
		i++
	})
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%.0f allocs/event", allocs)
	return allocs
}

// joinOnly applies the i-th fresh join of the event list.
func joinOnly(eng *engine.Engine, rng *xrand.RNG, i int) error {
	id, cfg := join1000(rng, i)
	_, err := eng.Apply(strategy.JoinEvent(id, cfg))
	return err
}

// moveOnly applies the next move of the event list.
func moveOnly(eng *engine.Engine, rng *xrand.RNG, _ int) error {
	_, err := eng.Apply(move1000(rng))
	return err
}

func TestAllocsMinimJoin1000(t *testing.T) {
	got := allocsPerEvent(t, joinOnly, sim.Minim)
	if got > allocCeilMinimJoin {
		t.Fatalf("Minim join at n=1000: %.0f allocs/event, ceiling %d", got, allocCeilMinimJoin)
	}
}

func TestAllocsMinimMove1000(t *testing.T) {
	got := allocsPerEvent(t, moveOnly, sim.Minim)
	if got > allocCeilMinimMove {
		t.Fatalf("Minim move at n=1000: %.0f allocs/event, ceiling %d", got, allocCeilMinimMove)
	}
}

func TestAllocsCPJoin1000(t *testing.T) {
	got := allocsPerEvent(t, joinOnly, sim.CP)
	if got > allocCeilCPJoin {
		t.Fatalf("CP join at n=1000: %.0f allocs/event, ceiling %d", got, allocCeilCPJoin)
	}
}

func TestAllocsCPMove1000(t *testing.T) {
	got := allocsPerEvent(t, moveOnly, sim.CP)
	if got > allocCeilCPMove {
		t.Fatalf("CP move at n=1000: %.0f allocs/event, ceiling %d", got, allocCeilCPMove)
	}
}

// stepMove decodes and applies the next move of the event list with
// engine.Step, bypassing the engine's numbering and fan-out.
func stepMove(eng *engine.Engine, rng *xrand.RNG, _ int) error {
	_, err := engine.Step(eng.Network(), move1000(rng))
	return err
}

// stepJoin decodes and applies the i-th fresh join of the event list
// with engine.Step.
func stepJoin(eng *engine.Engine, rng *xrand.RNG, i int) error {
	id, cfg := join1000(rng, i)
	_, err := engine.Step(eng.Network(), strategy.JoinEvent(id, cfg))
	return err
}

func TestAllocsStepMove1000(t *testing.T) {
	got := allocsPerEvent(t, stepMove)
	if got > allocCeilStepMove {
		t.Fatalf("engine.Step move at n=1000: %.0f allocs/event, ceiling %d", got, allocCeilStepMove)
	}
}

func TestAllocsStepJoin1000(t *testing.T) {
	got := allocsPerEvent(t, stepJoin)
	if got > allocCeilStepJoin {
		t.Fatalf("engine.Step join at n=1000: %.0f allocs/event, ceiling %d", got, allocCeilStepJoin)
	}
}
