// Conference: the paper's first motivating scenario — "a conference
// where members communicate with each other". Attendees stream into a
// 100x100 hall one by one (a join-heavy workload), a few leave early,
// and during the lull the gossip extension compacts the code space.
//
// The example compares the three strategies on the identical arrival
// sequence and prints the paper's two metrics, then demonstrates the
// section 6 gossip compaction on the Minim result.
//
// Run with: go run ./examples/conference
package main

import (
	"fmt"
	"log"

	"repro/internal/gossip"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func main() {
	p := workload.Defaults()
	p.N = 80 // attendees
	arrivals := workload.JoinScript(2026, p)

	// A few early departures after the arrivals.
	var script []strategy.Event
	script = append(script, arrivals...)
	for _, id := range []int{3, 17, 42} {
		script = append(script, strategy.LeaveEvent(arrivals[id].ID))
	}

	fmt.Printf("conference hall: %d arrivals, 3 departures\n\n", p.N)
	fmt.Printf("%-8s %-18s %-16s\n", "strategy", "total recodings", "max code index")
	results, err := sim.Run(sim.AllStrategies, script, true)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-8s %-18d %-16d\n", r.Name, r.Final.TotalRecodings, r.Final.MaxColor)
	}

	// Re-run Minim alone to keep its state for the gossip demo.
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Apply(script); err != nil {
		log.Fatal(err)
	}
	st, _ := sess.StrategyOf(sim.Minim)
	fmt.Println("\ncoffee break: gossip compaction while nobody moves...")
	res := gossip.Compact(sess.Engine().Network(), st.Assignment(), 0)
	fmt.Printf("gossip: %d nodes recoded over %d rounds, max code %d -> %d\n",
		res.Recodings, res.Rounds, res.MaxBefore, res.MaxAfter)
}
