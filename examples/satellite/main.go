// Satellite: the paper's other critical scenario — "networks formed on
// the fly by satellite constellations". A ring of satellites drifts
// along its orbit in discrete steps; each step is a movement round for
// every satellite, so links are made and broken continuously at the
// ring's seams. Ground terminals join and leave under the ring.
//
// The constellation's movement is *structured* (all satellites advance
// together), which makes it a stress test for RecodeOnMove: the paper's
// distributed join protocol is also exercised for the terminals via the
// message-passing runtime.
//
// Run with: go run ./examples/satellite
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/adhoc"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
)

const (
	numSats   = 16
	orbitR    = 40.0 // orbit radius in arena units
	satRange  = 18.0 // inter-satellite link range
	centerX   = 50.0
	centerY   = 50.0
	orbitStep = 2 * math.Pi / 64 // advance per simulation step
)

func satPos(i int, phase float64) geom.Point {
	a := phase + 2*math.Pi*float64(i)/numSats
	return geom.Point{X: centerX + orbitR*math.Cos(a), Y: centerY + orbitR*math.Sin(a)}
}

func main() {
	// One Minim recoder on its engine, CA1/CA2 re-verified after every
	// event.
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, true)
	if err != nil {
		log.Fatal(err)
	}
	m, _ := sess.MetricsOf(sim.Minim)

	// Deploy the constellation.
	phase := 0.0
	for i := 0; i < numSats; i++ {
		ev := strategy.JoinEvent(graph.NodeID(i), adhoc.Config{Pos: satPos(i, phase), Range: satRange})
		if err := sess.Apply([]strategy.Event{ev}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("constellation deployed: %d satellites, max code %d, %d recodings\n",
		numSats, m.MaxColor, m.TotalRecodings)

	// Orbit for 32 steps: every satellite moves each step.
	beforeOrbit := m.TotalRecodings
	for step := 0; step < 32; step++ {
		phase += orbitStep
		for i := 0; i < numSats; i++ {
			if err := sess.Apply([]strategy.Event{strategy.MoveEvent(graph.NodeID(i), satPos(i, phase))}); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("after 32 orbit steps (%d moves): %d additional recodings, max code %d\n",
		32*numSats, m.TotalRecodings-beforeOrbit, m.MaxColor)

	// Ground terminals join underneath via the distributed protocol.
	st, _ := sess.StrategyOf(sim.Minim)
	rt := dist.NewRuntime(7, sess.Engine().Network(), st.Assignment())
	terminals := []geom.Point{{X: 50, Y: 50}, {X: 30, Y: 45}, {X: 70, Y: 55}}
	for i, pos := range terminals {
		id := graph.NodeID(100 + i)
		cfg := adhoc.Config{Pos: pos, Range: 25}
		if err := rt.StartJoin(id, cfg, "minim"); err != nil {
			log.Fatal(err)
		}
		if err := rt.Engine.Run(100000); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("terminal %d joined via distributed protocol: code %d (messages so far: %d)\n",
			id, rt.Node(id).Color(), rt.Engine.Delivered)
	}

	final := rt.Assignment()
	if vs := toca.Verify(rt.Net.Graph(), final); len(vs) > 0 {
		log.Fatalf("violations: %v", vs)
	}
	fmt.Printf("final: %d nodes, max code %d, CA1/CA2 valid\n", rt.Net.Size(), final.MaxColor())
}
