package batch

import (
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// sparseJoins builds a join script over a large arena so that waves
// actually pack multiple independent joins.
func sparseJoins(seed uint64, n int, arena float64) []strategy.Event {
	rng := xrand.New(seed)
	events := make([]strategy.Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, strategy.JoinEvent(graph.NodeID(i), adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)},
			Range: rng.Uniform(20.5, 30.5),
		}))
	}
	return events
}

// hostMinim returns an engine hosting one Minim recoder.
func hostMinim() (*engine.Engine, *core.Recoder) {
	eng := engine.New()
	rec := core.New(eng.Network(), nil)
	eng.Subscribe(rec)
	return eng, rec
}

// applySeq applies events one by one through the engine and returns the
// total recodings.
func applySeq(eng *engine.Engine, events []strategy.Event) (int, error) {
	recodings := 0
	for _, ev := range events {
		outs, err := eng.Apply(ev)
		if err != nil {
			return recodings, err
		}
		recodings += outs[0].Recodings()
	}
	return recodings, nil
}

// TestPlanBarriers: non-join events each form their own barrier wave.
func TestPlanBarriers(t *testing.T) {
	events := []strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}),
		strategy.LeaveEvent(1),
		strategy.JoinEvent(2, adhoc.Config{Pos: geom.Point{X: 500, Y: 0}, Range: 10}),
		strategy.JoinEvent(3, adhoc.Config{Pos: geom.Point{X: 1000, Y: 0}, Range: 10}),
	}
	waves, err := Plan(events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != 3 {
		t.Fatalf("waves = %d, want 3", len(waves))
	}
	if waves[0].Barrier || len(waves[0].Events) != 1 {
		t.Fatalf("wave 0 = %+v", waves[0])
	}
	if !waves[1].Barrier {
		t.Fatal("leave not a barrier")
	}
	if len(waves[2].Events) != 2 {
		t.Fatalf("far-apart joins not packed: %+v", waves[2])
	}
}

// TestPlanConflictSplits: close joins land in separate waves; duplicate
// IDs always conflict.
func TestPlanConflictSplits(t *testing.T) {
	near := []strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}),
		strategy.JoinEvent(2, adhoc.Config{Pos: geom.Point{X: 15, Y: 0}, Range: 10}),
	}
	waves, err := Plan(near, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != 2 {
		t.Fatalf("close joins packed together: %d waves", len(waves))
	}
	dup := []strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}),
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 5000, Y: 0}, Range: 10}),
	}
	waves, err = Plan(dup, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != 2 {
		t.Fatalf("duplicate-ID joins packed together")
	}
}

func TestPlanRejectsUnderestimatedRmax(t *testing.T) {
	events := []strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 50}),
	}
	if _, err := Plan(events, 10); err == nil {
		t.Fatal("rmax underestimate accepted")
	}
}

// TestWavesCoverScript: planning partitions the script exactly.
func TestWavesCoverScript(t *testing.T) {
	events := sparseJoins(3, 60, 800)
	waves, err := Plan(events, 30.5)
	if err != nil {
		t.Fatal(err)
	}
	var flat []strategy.Event
	for _, w := range waves {
		flat = append(flat, w.Events...)
	}
	if len(flat) != len(events) {
		t.Fatalf("waves hold %d events, want %d", len(flat), len(events))
	}
	for i := range flat {
		if flat[i].ID != events[i].ID {
			t.Fatalf("event order changed at %d", i)
		}
	}
	// Sanity: on a sparse arena at least one wave packs several joins.
	packed := 0
	for _, w := range waves {
		if len(w.Events) > 1 {
			packed++
		}
	}
	if packed == 0 {
		t.Fatal("no wave packed more than one join on a sparse arena")
	}
}

// TestApplyMatchesSequential (the load-bearing test): batched parallel
// execution equals the plain sequential engine-hosted recoder on the
// same script, event for event: same assignment, same digraph, same
// recodings, and the engine log records the whole script.
func TestApplyMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		checkMatchesSequential(t, seed, 80, 600)
	}
}

// TestApplyEngineMatchesSequential: on a sparser arena, where waves pack
// more joins, the batched path still equals the sequential one.
func TestApplyEngineMatchesSequential(t *testing.T) {
	checkMatchesSequential(t, 31, 60, 900)
}

// checkMatchesSequential runs the join script sparseJoins(seed, n, arena)
// sequentially and batched on two fresh engines and compares the results.
func checkMatchesSequential(t *testing.T, seed uint64, n int, arena float64) {
	t.Helper()
	events := sparseJoins(seed, n, arena)

	seqEng, seq := hostMinim()
	seqRecodings, err := applySeq(seqEng, events)
	if err != nil {
		t.Fatal(err)
	}

	parEng, par := hostMinim()
	parRecodings, err := Apply(parEng, par, events, 8)
	if err != nil {
		t.Fatal(err)
	}
	if parRecodings != seqRecodings {
		t.Fatalf("seed %d: parallel %d recodings, sequential %d", seed, parRecodings, seqRecodings)
	}
	if !reflect.DeepEqual(seq.Assignment(), par.Assignment()) {
		t.Fatalf("seed %d: parallel assignment diverges from sequential", seed)
	}
	if !reflect.DeepEqual(seqEng.Network().Graph().Edges(), parEng.Network().Graph().Edges()) {
		t.Fatalf("seed %d: parallel digraph diverges from sequential", seed)
	}
	if parEng.Seq() != len(events) {
		t.Fatalf("seed %d: engine log has %d events, want %d", seed, parEng.Seq(), len(events))
	}
	if !toca.Valid(parEng.Network().Graph(), par.Assignment()) {
		t.Fatalf("seed %d: parallel result invalid", seed)
	}
}

// TestApplyGuards: Apply insists on exactly the given recoder as the
// engine's single subscriber.
func TestApplyGuards(t *testing.T) {
	eng := engine.New()
	rec := core.New(eng.Network(), nil)
	if _, err := Apply(eng, rec, nil, 1); err == nil {
		t.Fatal("unsubscribed recoder accepted")
	}
	eng.Subscribe(rec)
	other := core.New(eng.Network(), nil)
	if _, err := Apply(eng, other, nil, 1); err == nil {
		t.Fatal("wrong recoder accepted")
	}
	eng.Subscribe(core.New(eng.Network(), nil))
	if _, err := Apply(eng, rec, nil, 1); err == nil {
		t.Fatal("second subscriber accepted")
	}
}

// TestApplyLogsThroughEngine: every event of a batched script lands in
// the engine's network and log.
func TestApplyLogsThroughEngine(t *testing.T) {
	eng, r := hostMinim()
	events := sparseJoins(7, 20, 600)
	if _, err := Apply(eng, r, events, 4); err != nil {
		t.Fatal(err)
	}
	if eng.Network().Size() != 20 || eng.Seq() != 20 {
		t.Fatalf("network has %d nodes and log %d events, want 20", eng.Network().Size(), eng.Seq())
	}
	if !toca.Valid(eng.Network().Graph(), r.Assignment()) {
		t.Fatal("assignment invalid after batch apply")
	}
}

// TestApplyMixedScriptWithBarriers: non-join events interleave correctly.
func TestApplyMixedScriptWithBarriers(t *testing.T) {
	rng := xrand.New(9)
	var events []strategy.Event
	for i := 0; i < 40; i++ {
		events = append(events, strategy.JoinEvent(graph.NodeID(i), adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 500), Y: rng.Uniform(0, 500)},
			Range: rng.Uniform(20.5, 30.5),
		}))
		if i%7 == 3 {
			events = append(events, strategy.MoveEvent(graph.NodeID(i),
				geom.Point{X: rng.Uniform(0, 500), Y: rng.Uniform(0, 500)}))
		}
		if i%11 == 5 {
			events = append(events, strategy.LeaveEvent(graph.NodeID(i-1)))
		}
	}

	seqEng, seq := hostMinim()
	if _, err := applySeq(seqEng, events); err != nil {
		t.Fatal(err)
	}
	parEng, par := hostMinim()
	if _, err := Apply(parEng, par, events, 4); err != nil {
		t.Fatal(err)
	}
	want := seq.Assignment()
	got := par.Assignment()
	if len(want) != len(got) {
		t.Fatalf("sizes differ: %d vs %d", len(got), len(want))
	}
	for id, c := range want {
		if got[id] != c {
			t.Fatalf("node %d: parallel %d, sequential %d", id, got[id], c)
		}
	}
}

// TestApplyErrorPropagation: a duplicate join surfaces as an error.
func TestApplyErrorPropagation(t *testing.T) {
	events := []strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 0, Y: 0}, Range: 10}),
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 1, Y: 0}, Range: 10}),
	}
	eng, r := hostMinim()
	if _, err := Apply(eng, r, events, 2); err == nil {
		t.Fatal("duplicate join did not error")
	}
}

func BenchmarkApplySequential(b *testing.B) {
	events := sparseJoins(7, 300, 2000)
	for i := 0; i < b.N; i++ {
		eng, _ := hostMinim()
		if _, err := applySeq(eng, events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyParallel8(b *testing.B) {
	events := sparseJoins(7, 300, 2000)
	for i := 0; i < b.N; i++ {
		eng, r := hostMinim()
		if _, err := Apply(eng, r, events, 8); err != nil {
			b.Fatal(err)
		}
	}
}
