// Integration tests spanning the whole stack: workload -> strategies ->
// verification -> gossip -> radio, plus the cross-strategy orderings the
// paper's evaluation claims.
package repro

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/toca"
	"repro/internal/workload"
)

// TestPipelineJoinWorkload: all three strategies process the paper's
// section 5.1 workload with per-event validation; the aggregate ordering
// Minim <= CP <= BBB on recodings and BBB <= Minim on max color holds
// over a batch of seeds.
func TestPipelineJoinWorkload(t *testing.T) {
	var recM, recC, recB, colM, colB int
	for seed := uint64(1); seed <= 5; seed++ {
		p := workload.Defaults()
		p.N = 60
		events := workload.JoinScript(seed, p)
		results, err := sim.Run(sim.AllStrategies, events, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			switch r.Name {
			case sim.Minim:
				recM += r.Final.TotalRecodings
				colM += int(r.Final.MaxColor)
			case sim.CP:
				recC += r.Final.TotalRecodings
			case sim.BBB:
				recB += r.Final.TotalRecodings
				colB += int(r.Final.MaxColor)
			}
		}
	}
	if recM > recC {
		t.Fatalf("Minim total recodings %d > CP %d", recM, recC)
	}
	if recC > recB {
		t.Fatalf("CP total recodings %d > BBB %d", recC, recB)
	}
	if colB > colM {
		t.Fatalf("BBB total max color %d > Minim %d", colB, colM)
	}
}

// TestPipelineChurnThenGossipThenRadio: a mixed-churn network handled by
// Minim stays valid, gossip compacts it without breaking validity, and
// the chip-level radio decodes everything under full simultaneous load.
func TestPipelineChurnThenGossipThenRadio(t *testing.T) {
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, true)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Defaults()
	p.N = 50
	events := workload.Churn(77, p, 150, workload.ChurnWeights{Join: 1, Leave: 1, Move: 3, Power: 2})
	if err := sess.Apply(events); err != nil {
		t.Fatal(err)
	}
	st, _ := sess.StrategyOf(sim.Minim)
	net := sess.Engine().Network()

	res := gossip.Compact(net, st.Assignment(), 0)
	if res.MaxAfter > res.MaxBefore {
		t.Fatalf("gossip raised max color %d -> %d", res.MaxBefore, res.MaxAfter)
	}
	if vs := toca.Verify(net.Graph(), st.Assignment()); len(vs) > 0 {
		t.Fatalf("gossip broke validity: %v", vs)
	}

	book, err := radio.BookFor(st.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := radio.BroadcastAll(net, st.Assignment(), book, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := radio.Garbled(rs); len(g) != 0 {
		t.Fatalf("%d garbled receptions after churn+gossip", len(g))
	}
	if len(rs) != net.Graph().NumEdges() {
		t.Fatalf("receptions %d != edges %d", len(rs), net.Graph().NumEdges())
	}
}

// TestPipelinePowerPhase: the Fig 11 two-phase protocol on one seed —
// Minim's delta recodings under CP's under BBB's, and all valid.
func TestPipelinePowerPhase(t *testing.T) {
	p := workload.Defaults()
	p.N = 60
	p.RaiseFactor = 4
	base := workload.JoinScript(11, p)
	phase := workload.PowerRaiseScript(11, p)
	results, err := sim.RunPhases(sim.AllStrategies, base, phase, true)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[sim.StrategyName]sim.PhaseResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if byName[sim.Minim].DeltaRecodings() > byName[sim.CP].DeltaRecodings() {
		t.Fatalf("Minim Δ %d > CP Δ %d",
			byName[sim.Minim].DeltaRecodings(), byName[sim.CP].DeltaRecodings())
	}
	if byName[sim.CP].DeltaRecodings() > byName[sim.BBB].DeltaRecodings() {
		t.Fatalf("CP Δ %d > BBB Δ %d",
			byName[sim.CP].DeltaRecodings(), byName[sim.BBB].DeltaRecodings())
	}
}

// TestPipelineMovementPhase: the Fig 12 two-phase protocol on one seed.
func TestPipelineMovementPhase(t *testing.T) {
	p := workload.Defaults()
	p.N = 40
	p.MaxDisp = 40
	p.RoundNo = 3
	base := workload.JoinScript(13, p)
	phase := workload.MoveScript(13, p)
	results, err := sim.RunPhases([]sim.StrategyName{sim.Minim, sim.CP}, base, phase, true)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].DeltaRecodings() > results[1].DeltaRecodings() {
		t.Fatalf("Minim Δ %d > CP Δ %d",
			results[0].DeltaRecodings(), results[1].DeltaRecodings())
	}
}
