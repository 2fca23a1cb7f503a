package sim

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
)

// TestNewStrategy: every name in the table builds an instance reporting
// that name; an unknown name errors.
func TestNewStrategy(t *testing.T) {
	for _, name := range append(AllStrategies, CPStrict) {
		s, err := NewSharedStrategy(name, adhoc.New())
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != string(name) {
			t.Fatalf("Name = %q, want %q", s.Name(), name)
		}
	}
	if _, err := NewSharedStrategy("nope", adhoc.New()); err == nil {
		t.Fatal("unknown strategy did not error")
	}
	if _, err := SpecOf("nope"); err == nil {
		t.Fatal("unknown spec did not error")
	}
	if s, _ := SpecOf(BBB); s.Local {
		t.Fatal("BBB's global recolor marked local")
	}
}

func TestRunSinglePhase(t *testing.T) {
	p := workload.Defaults()
	p.N = 30
	events := workload.JoinScript(1, p)
	results, err := Run(AllStrategies, events, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Final.Nodes != 30 {
			t.Fatalf("%s: %d nodes", r.Name, r.Final.Nodes)
		}
		if r.Final.TotalRecodings < 30 {
			t.Fatalf("%s: %d recodings < N", r.Name, r.Final.TotalRecodings)
		}
		if r.Final.MaxColor == toca.None {
			t.Fatalf("%s: no colors assigned", r.Name)
		}
		// Single phase: base snapshot equals final.
		if r.DeltaRecodings() != 0 || r.DeltaMaxColor() != 0 {
			t.Fatalf("%s: non-zero deltas on single phase", r.Name)
		}
	}
}

func TestRunPhasesDeltas(t *testing.T) {
	p := workload.Defaults()
	p.N = 30
	p.RaiseFactor = 3
	base := workload.JoinScript(2, p)
	phase := workload.PowerRaiseScript(2, p)
	results, err := RunPhases(AllStrategies, base, phase, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Final.TotalRecodings < r.AfterBase.TotalRecodings {
			t.Fatalf("%s: recodings decreased", r.Name)
		}
		if r.DeltaRecodings() != r.Final.TotalRecodings-r.AfterBase.TotalRecodings {
			t.Fatalf("%s: delta arithmetic", r.Name)
		}
	}
	// The paper's Fig 11 ordering: Minim recodes least in the raise
	// phase, BBB most.
	byName := map[StrategyName]PhaseResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if byName[Minim].DeltaRecodings() > byName[CP].DeltaRecodings() {
		t.Fatalf("Minim Δrecodings %d > CP %d", byName[Minim].DeltaRecodings(), byName[CP].DeltaRecodings())
	}
	if byName[CP].DeltaRecodings() > byName[BBB].DeltaRecodings() {
		t.Fatalf("CP Δrecodings %d > BBB %d", byName[CP].DeltaRecodings(), byName[BBB].DeltaRecodings())
	}
}

func TestIdenticalScriptsAcrossStrategies(t *testing.T) {
	// All strategies must end with identical topology (same events).
	p := workload.Defaults()
	p.N = 25
	events := workload.JoinScript(5, p)
	results, err := Run(AllStrategies, events, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[1:] {
		if r.Final.Nodes != results[0].Final.Nodes {
			t.Fatalf("topologies diverged: %d vs %d", r.Final.Nodes, results[0].Final.Nodes)
		}
	}
}

func TestSessionErrorPropagates(t *testing.T) {
	sess, err := NewEngineSession([]StrategyName{Minim}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Leaving an absent node must surface the error.
	if err := sess.Apply([]strategy.Event{strategy.LeaveEvent(99)}); err == nil {
		t.Fatal("error not propagated")
	}
}

// corruptedSession hosts Minim on two mutually linked nodes, then forces
// both onto one code behind the strategy's back (a CA1 violation the
// next far-away join does not repair).
func corruptedSession(t *testing.T, validate bool) *EngineSession {
	t.Helper()
	sess, err := NewEngineSession([]StrategyName{Minim}, validate)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply([]strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}),
		strategy.JoinEvent(2, adhoc.Config{Pos: geom.Point{X: 5, Y: 0}, Range: 10}),
	}); err != nil {
		t.Fatal(err)
	}
	st, _ := sess.StrategyOf(Minim)
	st.SetColor(2, st.Assignment()[1])
	return sess
}

// TestEngineSessionValidateCatchesViolations: a validating session
// refuses to continue past an event that leaves CA1/CA2 broken.
func TestEngineSessionValidateCatchesViolations(t *testing.T) {
	far := []strategy.Event{strategy.JoinEvent(3, adhoc.Config{Pos: geom.Point{X: 90, Y: 90}, Range: 5})}
	if err := corruptedSession(t, true).Apply(far); err == nil {
		t.Fatal("validating session accepted an invalid assignment")
	}
}

// TestEngineSessionWithoutValidateSkipsCheck: without validation the
// same event is applied and counted.
func TestEngineSessionWithoutValidateSkipsCheck(t *testing.T) {
	sess := corruptedSession(t, false)
	far := []strategy.Event{strategy.JoinEvent(3, adhoc.Config{Pos: geom.Point{X: 90, Y: 90}, Range: 5})}
	if err := sess.Apply(far); err != nil {
		t.Fatalf("non-validating session errored: %v", err)
	}
	if m, _ := sess.MetricsOf(Minim); m.Events != 3 {
		t.Fatalf("metrics recorded %d events, want 3", m.Events)
	}
}

func TestRunPhasesUnknownStrategy(t *testing.T) {
	if _, err := RunPhases([]StrategyName{"bogus"}, nil, nil, false); err == nil {
		t.Fatal("unknown strategy did not error")
	}
}
