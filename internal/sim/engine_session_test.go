package sim

import (
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
)

// TestEngineSessionSharesNetwork: every hosted strategy reads the one
// engine-owned replica — each colors exactly the engine network's nodes,
// validly, with no replica of its own to keep in step.
func TestEngineSessionSharesNetwork(t *testing.T) {
	sess, err := NewEngineSession(AllStrategies, false)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Defaults()
	p.N = 20
	if err := sess.Apply(workload.JoinScript(4, p)); err != nil {
		t.Fatal(err)
	}
	net := sess.Engine().Network()
	for _, name := range AllStrategies {
		st, ok := sess.StrategyOf(name)
		if !ok {
			t.Fatalf("%s not hosted", name)
		}
		a := st.Assignment()
		if len(a) != net.Size() {
			t.Fatalf("%s colors %d nodes, engine network holds %d", name, len(a), net.Size())
		}
		if !toca.Valid(net.Graph(), a) {
			t.Fatalf("%s assignment invalid on the engine network", name)
		}
	}
}

// TestEngineSessionEventLog: the session is event-sourced — a
// subscriber sees exactly the applied script, and phase marks fall at
// its boundaries.
func TestEngineSessionEventLog(t *testing.T) {
	p := workload.Defaults()
	p.N = 20
	p.RaiseFactor = 2
	base := workload.JoinScript(3, p)
	phase := workload.PowerRaiseScript(3, p)

	sess, err := NewEngineSession(AllStrategies, false)
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	sess.Engine().Subscribe(log) // after the strategies: Apply reads only their outcomes
	if err := sess.Apply(base); err != nil {
		t.Fatal(err)
	}
	sess.Mark()
	if err := sess.Apply(phase); err != nil {
		t.Fatal(err)
	}
	sess.Mark()

	want := append(append([]strategy.Event{}, base...), phase...)
	if !reflect.DeepEqual(log.events, want) {
		t.Fatal("applied events do not equal the script")
	}
	if got := sess.Phases(); len(got) != 2 || got[0] != len(base) || got[1] != len(base)+len(phase) {
		t.Fatalf("phase marks = %v", got)
	}
}

// TestRunPhasesMatchesLegacySemantics: the shared-engine RunPhases
// produces the same per-strategy results as hosting each strategy alone
// on its own engine over a scan-backed network (the pre-engine
// architecture: one replica per strategy, naive candidate scans).
func TestRunPhasesMatchesLegacySemantics(t *testing.T) {
	p := workload.Defaults()
	p.N = 30
	p.MaxDisp = 40
	p.RoundNo = 2
	base := workload.JoinScript(6, p)
	phase := workload.MoveScript(6, p)

	got, err := RunPhases(AllStrategies, base, phase, true)
	if err != nil {
		t.Fatal(err)
	}

	for i, name := range AllStrategies {
		eng := engine.Adopt(adhoc.NewScan())
		st, err := NewSharedStrategy(name, eng.Network())
		if err != nil {
			t.Fatal(err)
		}
		eng.Subscribe(st)
		m := strategy.NewMetrics()
		snapshot := func(events []strategy.Event) Snapshot {
			for _, ev := range events {
				outs, err := eng.Apply(ev)
				if err != nil {
					t.Fatal(err)
				}
				m.Record(ev.Kind, outs[0])
			}
			return Snapshot{TotalRecodings: m.TotalRecodings, MaxColor: m.MaxColor, Nodes: eng.Network().Size()}
		}
		afterBase := snapshot(base)
		final := snapshot(phase)
		if got[i].AfterBase != afterBase || got[i].Final != final {
			t.Fatalf("%s: shared engine %+v/%+v, own scan engine %+v/%+v",
				name, got[i].AfterBase, got[i].Final, afterBase, final)
		}
	}
}

// eventLog is a subscriber that records every event its engine applies.
type eventLog struct{ events []strategy.Event }

func (l *eventLog) Name() string { return "event log" }

func (l *eventLog) OnDelta(d engine.Delta) (strategy.Outcome, error) {
	l.events = append(l.events, d.Event)
	return strategy.Outcome{}, nil
}

// Phases returns the marked phase boundaries as log offsets.
func (s *EngineSession) Phases() []int { return append([]int(nil), s.phases...) }
