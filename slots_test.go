package repro

import (
	"reflect"
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

// TestSlotNumberingInvisible: digraph slots are an address, never an
// order. Two engines run the same churn script under every strategy,
// one on a fresh network and one on a network whose free list was first
// scrambled by joining and then leaving outside IDs in random order, so
// the script's nodes hold different slots on the two sides (and slots
// are reused mid-run on both). Every event's outcome and the final
// assignments must agree exactly.
func TestSlotNumberingInvisible(t *testing.T) {
	p := workload.Defaults()
	p.N = 60
	script := workload.Churn(17, p, 400, workload.ChurnWeights{Join: 1, Leave: 1, Move: 2, Power: 1})
	for _, name := range append(sim.AllStrategies, sim.CPStrict) {
		t.Run(string(name), func(t *testing.T) {
			fresh, freshSt := hostOn(t, name, adhoc.New())
			scrambled := adhoc.New()
			rng := xrand.New(5)
			outside := make([]graph.NodeID, 40)
			for i := range outside {
				outside[i] = graph.NodeID(1_000_000 + 7*i)
				cfg := adhoc.Config{Pos: geom.Point{X: rng.Uniform(0, p.ArenaW), Y: rng.Uniform(0, p.ArenaH)}, Range: 25}
				if err := scrambled.Join(outside[i], cfg); err != nil {
					t.Fatal(err)
				}
			}
			for _, i := range rng.Perm(len(outside)) {
				if err := scrambled.Leave(outside[i]); err != nil {
					t.Fatal(err)
				}
			}
			other, otherSt := hostOn(t, name, scrambled)

			moved := 0
			for k, ev := range script {
				want, err := fresh.Apply(ev)
				if err != nil {
					t.Fatal(err)
				}
				got, err := other.Apply(ev)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("event %d (%v): outcome %+v on scrambled slots, %+v on fresh", k, ev, got, want)
				}
				if ev.Kind == strategy.Join {
					a, _ := fresh.Network().Graph().Slot(ev.ID)
					b, _ := other.Network().Graph().Slot(ev.ID)
					if a != b {
						moved++
					}
				}
			}
			if moved == 0 {
				t.Fatal("no joiner held a different slot on the two sides; the test exercised nothing")
			}
			if !reflect.DeepEqual(otherSt.Assignment(), freshSt.Assignment()) {
				t.Fatal("final assignments differ")
			}
		})
	}
}

// hostOn hosts the named strategy alone on an engine adopting net.
func hostOn(t *testing.T, name sim.StrategyName, net *adhoc.Network) (*engine.Engine, sim.Hosted) {
	t.Helper()
	st, err := sim.NewSharedStrategy(name, net)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.Adopt(net)
	eng.Subscribe(st)
	return eng, st
}
