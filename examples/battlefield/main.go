// Battlefield: the paper's critical scenario — "networks formed on the
// fly ... on the battlefield". Squads of mobiles advance across the
// arena in movement rounds while units adjust transmission power (raising
// it to reach command, lowering it for stealth). A hard-real-time data
// feed is assumed, so the number of recodings is the metric that matters:
// every recoding stalls a mobile's traffic.
//
// The example contrasts Minim and CP on the identical maneuver and
// verifies with the chip-level radio simulator that the final code
// assignment delivers every transmission intact.
//
// Run with: go run ./examples/battlefield
package main

import (
	"fmt"
	"log"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func main() {
	p := workload.Defaults()
	p.N = 48 // four squads of twelve
	base := workload.JoinScript(777, p)

	// The maneuver: five rounds of advances with power adjustments mixed
	// in. Squads drift east; every round two units raise power (reaching
	// back to command) and two lower it (stealth).
	rng := xrand.New(424242)
	pos := make(map[int]geom.Point, p.N)
	rg := make(map[int]float64, p.N)
	for _, ev := range base {
		pos[int(ev.ID)] = ev.Cfg.Pos
		rg[int(ev.ID)] = ev.Cfg.Range
	}
	arena := geom.Arena(p.ArenaW, p.ArenaH)
	var maneuver []strategy.Event
	for round := 0; round < 5; round++ {
		for i := 0; i < p.N; i++ {
			d := geom.Vector{DX: rng.Uniform(2, 12), DY: rng.Uniform(-4, 4)}
			pos[i] = arena.Clamp(pos[i].Add(d))
			maneuver = append(maneuver, strategy.MoveEvent(base[i].ID, pos[i]))
		}
		for k := 0; k < 2; k++ {
			up := rng.Intn(p.N)
			rg[up] *= 1.6
			maneuver = append(maneuver, strategy.PowerEvent(base[up].ID, rg[up]))
			down := rng.Intn(p.N)
			rg[down] *= 0.7
			maneuver = append(maneuver, strategy.PowerEvent(base[down].ID, rg[down]))
		}
	}

	fmt.Printf("battlefield maneuver: %d deployment joins, %d maneuver events\n\n",
		len(base), len(maneuver))
	results, err := sim.RunPhases([]sim.StrategyName{sim.Minim, sim.CP}, base, maneuver, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-24s %-20s\n", "strategy", "maneuver recodings", "Δ max code index")
	for _, r := range results {
		fmt.Printf("%-8s %-24d %-20d\n", r.Name, r.DeltaRecodings(), r.DeltaMaxColor())
	}

	// Radio check on the Minim endpoint: every unit transmits at once.
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Apply(base); err != nil {
		log.Fatal(err)
	}
	if err := sess.Apply(maneuver); err != nil {
		log.Fatal(err)
	}
	st, _ := sess.StrategyOf(sim.Minim)
	book, err := radio.BookFor(st.Assignment())
	if err != nil {
		log.Fatal(err)
	}
	rs, err := radio.BroadcastAll(sess.Engine().Network(), st.Assignment(), book, nil)
	if err != nil {
		log.Fatal(err)
	}
	garbled := radio.Garbled(rs)
	fmt.Printf("\nall-units transmission check: %d/%d receptions clean (spreading factor %d)\n",
		len(rs)-len(garbled), len(rs), book.ChipLength())
	if len(garbled) > 0 {
		log.Fatalf("garbled receptions: %d", len(garbled))
	}
}
