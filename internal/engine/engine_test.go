package engine_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/bbb"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// mixedScript builds a three-phase script: joins, then a power-raise
// phase, then movement rounds with some leaves mixed in — every event
// kind the engine decodes.
func mixedScript(seed uint64, n int) (phases [][]strategy.Event) {
	p := workload.Defaults()
	p.N = n
	p.RaiseFactor = 2.5
	p.MaxDisp = 30
	p.RoundNo = 2
	base := workload.JoinScript(seed, p)
	raise := workload.PowerRaiseScript(seed, p)
	move := workload.MoveScript(seed, p)
	rng := xrand.New(seed ^ 0xdead)
	var churn []strategy.Event
	for i := 0; i < n/4; i++ {
		churn = append(churn, strategy.LeaveEvent(graph.NodeID(rng.Intn(n))))
	}
	// Deduplicate leaves (a node can only leave once).
	seen := make(map[graph.NodeID]bool)
	var leaves []strategy.Event
	for _, ev := range churn {
		if !seen[ev.ID] {
			seen[ev.ID] = true
			leaves = append(leaves, ev)
		}
	}
	return [][]strategy.Event{base, raise, move, leaves}
}

// hosted is the interface the tests read strategies through.
type hosted interface {
	engine.Subscriber
	Assignment() toca.Assignment
}

// trio builds Minim, CP and BBB over net.
func trio(net *adhoc.Network) []hosted {
	return []hosted{core.New(net, nil), cp.New(net, nil), bbb.New(net, nil)}
}

// TestEngineMatchesScanStandalone is the scan-vs-grid differential test:
// the same random join/leave/move/power script replayed through (a) one
// engine per strategy, each over its own naive scan network, and (b) one
// indexed engine shared by all three must produce identical digraphs and
// identical Minim/CP/BBB metrics at every phase boundary.
func TestEngineMatchesScanStandalone(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		phases := mixedScript(seed, 40)

		// (a) one scan-backed engine per strategy.
		var oracleEngs []*engine.Engine
		var oracle []hosted
		for i := range 3 {
			eng := engine.Adopt(adhoc.NewScan())
			s := trio(eng.Network())[i]
			eng.Subscribe(s)
			oracleEngs = append(oracleEngs, eng)
			oracle = append(oracle, s)
		}

		// (b) one shared indexed engine.
		eng := engine.New()
		shared := trio(eng.Network())
		for _, s := range shared {
			eng.Subscribe(s)
		}

		om := make([]*strategy.Metrics, len(shared))
		sm := make([]*strategy.Metrics, len(shared))
		for i := range shared {
			om[i], sm[i] = strategy.NewMetrics(), strategy.NewMetrics()
		}
		for pi, phase := range phases {
			for _, ev := range phase {
				for i, oe := range oracleEngs {
					outs, err := oe.Apply(ev)
					if err != nil {
						t.Fatalf("seed %d phase %d: oracle: %v", seed, pi, err)
					}
					om[i].Record(ev.Kind, outs[0])
				}
				outs, err := eng.Apply(ev)
				if err != nil {
					t.Fatalf("seed %d phase %d: engine: %v", seed, pi, err)
				}
				for i := range shared {
					sm[i].Record(ev.Kind, outs[i])
				}
			}
			// Phase boundary: digraph and per-strategy metric parity.
			for i := range shared {
				name := shared[i].Name()
				og := oracleEngs[i].Network().Graph()
				if !reflect.DeepEqual(og.Edges(), eng.Network().Graph().Edges()) {
					t.Fatalf("seed %d phase %d: %s: digraphs diverge", seed, pi, name)
				}
				o, s := om[i], sm[i]
				if o.TotalRecodings != s.TotalRecodings || o.MaxColor != s.MaxColor || o.PeakMaxColor != s.PeakMaxColor {
					t.Fatalf("seed %d phase %d: %s: metrics diverge: oracle (%d rec, max %d, peak %d) vs engine (%d rec, max %d, peak %d)",
						seed, pi, name,
						o.TotalRecodings, o.MaxColor, o.PeakMaxColor,
						s.TotalRecodings, s.MaxColor, s.PeakMaxColor)
				}
				if !reflect.DeepEqual(oracle[i].Assignment(), shared[i].Assignment()) {
					t.Fatalf("seed %d phase %d: %s: assignments diverge", seed, pi, name)
				}
			}
		}
		if err := eng.Network().CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestEngineSharesOneReplica: every subscriber reads the engine's own
// network object — a join through the engine reaches all three, each of
// which colors the joiner against the shared topology.
func TestEngineSharesOneReplica(t *testing.T) {
	eng := engine.New()
	subs := trio(eng.Network())
	for _, s := range subs {
		eng.Subscribe(s)
	}
	if _, err := eng.Apply(strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 1, Y: 1}, Range: 5})); err != nil {
		t.Fatal(err)
	}
	if eng.Network().Size() != 1 {
		t.Fatal("join did not reach the shared replica")
	}
	for _, s := range subs {
		if s.Assignment()[1] != 1 {
			t.Fatalf("%s did not color the joiner on the shared replica", s.Name())
		}
	}
}

// TestEngineLogReplay: the event log fully determines the run — Replay
// rebuilds an identical topology and identical subscriber assignments.
func TestEngineLogReplay(t *testing.T) {
	phases := mixedScript(11, 30)
	eng := engine.New()
	minim := core.New(eng.Network(), nil)
	eng.Subscribe(minim)
	for _, phase := range phases {
		for _, ev := range phase {
			if _, err := eng.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	var replayed *core.Recoder
	re, err := engine.Replay(eng.Log(), func(net *adhoc.Network) []engine.Subscriber {
		replayed = core.New(net, nil)
		return []engine.Subscriber{replayed}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.Network().Graph().Edges(), re.Network().Graph().Edges()) {
		t.Fatal("replayed digraph diverges")
	}
	if !reflect.DeepEqual(minim.Assignment(), replayed.Assignment()) {
		t.Fatal("replayed assignment diverges")
	}
	if re.Seq() != eng.Seq() {
		t.Fatalf("replayed log has %d events, original %d", re.Seq(), eng.Seq())
	}
}

// TestCommitPreparedGuard: CommitPrepared refuses to skip subscribers
// the caller did not acknowledge.
func TestCommitPreparedGuard(t *testing.T) {
	eng := engine.New()
	eng.Subscribe(core.New(eng.Network(), nil))
	if _, err := eng.CommitPrepared(strategy.JoinEvent(1, adhoc.Config{Range: 1}), 0); err == nil {
		t.Fatal("CommitPrepared ignored an unacknowledged subscriber")
	}
	if _, err := eng.CommitPrepared(strategy.JoinEvent(1, adhoc.Config{Range: 1}), 1); err != nil {
		t.Fatal(err)
	}
	if eng.Seq() != 1 {
		t.Fatalf("log has %d events, want 1", eng.Seq())
	}
}

// TestEngineTopologyErrors: bad events error without reaching
// subscribers or the log.
func TestEngineTopologyErrors(t *testing.T) {
	eng := engine.New()
	minim := core.New(eng.Network(), nil)
	eng.Subscribe(minim)
	if _, err := eng.Apply(strategy.LeaveEvent(99)); err == nil {
		t.Fatal("leave of absent node did not error")
	}
	if _, err := eng.Apply(strategy.MoveEvent(99, geom.Point{})); err == nil {
		t.Fatal("move of absent node did not error")
	}
	if _, err := eng.Apply(strategy.PowerEvent(99, 5)); err == nil {
		t.Fatal("power change of absent node did not error")
	}
	if _, err := eng.Apply(strategy.JoinEvent(1, adhoc.Config{Range: 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(strategy.JoinEvent(1, adhoc.Config{Range: 3})); err == nil {
		t.Fatal("duplicate join did not error")
	}
	if _, err := eng.Apply(strategy.JoinEvent(2, adhoc.Config{Pos: geom.Point{X: math.NaN(), Y: 10}, Range: 3})); err == nil {
		t.Fatal("join at a NaN position did not error")
	}
	if _, err := eng.Apply(strategy.MoveEvent(1, geom.Point{X: math.Inf(1)})); err == nil {
		t.Fatal("move to +Inf did not error")
	}
	if eng.Seq() != 1 {
		t.Fatalf("log recorded %d events, want only the valid join", eng.Seq())
	}
	if len(minim.Assignment()) != 1 {
		t.Fatalf("assignment = %v, want the single joiner colored", minim.Assignment())
	}
}
