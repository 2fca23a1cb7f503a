// Quickstart: build a small ad-hoc network with the Minim recoder, fire
// each kind of reconfiguration event, and watch how few nodes are
// recoded while CA1/CA2 stay satisfied.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/adhoc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

func main() {
	// The engine owns the network and decodes each event once; the Minim
	// recoder subscribes to it and recodes from the decoded event.
	eng := engine.New()
	r := core.New(eng.Network(), nil)
	eng.Subscribe(r)
	apply := func(ev strategy.Event) strategy.Outcome {
		outs, err := eng.Apply(ev)
		if err != nil {
			log.Fatal(err)
		}
		return outs[0]
	}

	// Two clusters of two nodes each, far apart: each cluster reuses the
	// low codes independently.
	join := func(id graph.NodeID, x, y, rng float64) {
		out := apply(strategy.JoinEvent(id, adhoc.Config{Pos: geom.Point{X: x, Y: y}, Range: rng}))
		fmt.Printf("join %d: %d recoded, max code %d, codes now %v\n",
			id, out.Recodings(), out.MaxColor, sorted(r.Assignment()))
	}
	join(1, 0, 0, 20)
	join(2, 3, 0, 20)
	join(3, 80, 0, 20)
	join(4, 83, 0, 20)

	// A wide-range hub joins between the clusters. It covers all four
	// nodes (they are its 3n set), so only the hub itself needs a fresh
	// code — the provably minimal recoding (Lemma 4.1.1: 1n ∪ 2n is
	// empty, so zero old nodes change).
	join(5, 41, 0, 45)

	// A power increase recodes at most the initiator (Theorem 4.2.3).
	out := apply(strategy.PowerEvent(1, 50))
	fmt.Printf("power up 1: %d recoded, max code %d\n", out.Recodings(), out.MaxColor)

	// Movement runs the same matching machinery as a join (Fig 8).
	out = apply(strategy.MoveEvent(3, geom.Point{X: 5, Y: 5}))
	fmt.Printf("move 3: %d recoded, max code %d\n", out.Recodings(), out.MaxColor)

	// Leaves never recode anybody (Theorem 4.3.3).
	out = apply(strategy.LeaveEvent(4))
	fmt.Printf("leave 4: %d recoded\n", out.Recodings())

	if vs := toca.Verify(eng.Network().Graph(), r.Assignment()); len(vs) > 0 {
		log.Fatalf("violations: %v", vs)
	}
	fmt.Println("final assignment is CA1/CA2 valid:", sorted(r.Assignment()))
}

// sorted renders an assignment with deterministic key order.
func sorted(a toca.Assignment) map[graph.NodeID]toca.Color {
	// map printing in Go sorts keys, so a plain copy suffices for output.
	out := make(map[graph.NodeID]toca.Color, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}
