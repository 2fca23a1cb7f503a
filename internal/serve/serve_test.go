package serve

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
	"repro/internal/xrand"
)

var allNames = []string{"Minim", "CP", "BBB"}

// testScript builds a two-phase scenario: n joins, then churn.
func testScript(seed uint64, n, churn int) (base, phase []strategy.Event) {
	p := workload.Defaults()
	p.N = n
	base = workload.JoinScript(seed, p)
	all := workload.Churn(seed, p, churn, workload.ChurnWeights{Join: 1, Leave: 1, Move: 3, Power: 2})
	return base, all[n:]
}

// sameGraph asserts two digraphs have identical node and edge sets.
func sameGraph(t *testing.T, tag string, got, want *graph.Digraph) {
	t.Helper()
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("%s: node sets differ", tag)
	}
	for _, u := range want.Nodes() {
		if !reflect.DeepEqual(got.OutNeighbors(u), want.OutNeighbors(u)) {
			t.Fatalf("%s: out-neighbors of %d differ: %v vs %v", tag, u, got.OutNeighbors(u), want.OutNeighbors(u))
		}
	}
}

// TestServeDifferential is the acceptance differential: a session driven
// through serve — with snapshot reads interleaved between events —
// produces assignments, digraphs, and Minim/CP/BBB metrics bit-identical
// to sim.RunPhases on the same script.
func TestServeDifferential(t *testing.T) {
	base, phase := testScript(11, 60, 150)

	want, err := sim.RunPhases([]sim.StrategyName{sim.Minim, sim.CP, sim.BBB}, base, phase, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim, sim.CP, sim.BBB}, false)
	if err != nil {
		t.Fatal(err)
	}

	s, err := newSession("diff", Config{Strategies: allNames, Validate: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := xrand.New(99)
	step := func(evs []strategy.Event) {
		for _, ev := range evs {
			if err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
			if err := ref.Apply([]strategy.Event{ev}); err != nil {
				t.Fatal(err)
			}
			// Interleaved snapshot reads: colors and conflict
			// neighborhoods must match the reference state at this seq.
			if rng.Float64() < 0.25 {
				v := s.View()
				nodes := ref.Engine().Network().Nodes()
				if len(nodes) == 0 {
					continue
				}
				id := nodes[rng.Intn(len(nodes))]
				for _, name := range allNames {
					st, _ := ref.StrategyOf(sim.StrategyName(name))
					wantC, has := st.Assignment()[id]
					gotC, ok := v.ColorOf(name, id)
					if ok != has || (has && gotC != wantC) {
						t.Fatalf("seq %d: %s color of %d = %d/%v, want %d/%v", v.Seq(), name, id, gotC, ok, wantC, has)
					}
				}
				wantN := toca.ConflictNeighborsSorted(ref.Engine().Network().Graph(), id)
				if gotN := v.ConflictNeighbors(id); !reflect.DeepEqual(gotN, wantN) && (len(gotN) != 0 || len(wantN) != 0) {
					t.Fatalf("seq %d: conflicts of %d = %v, want %v", v.Seq(), id, gotN, wantN)
				}
			}
		}
	}

	step(base)
	v := s.View()
	afterBase := map[string]strategy.Metrics{}
	for _, name := range allNames {
		m, _ := v.MetricsOf(name)
		afterBase[name] = m
	}
	step(phase)

	v = s.View()
	if v.Seq() != len(base)+len(phase) {
		t.Fatalf("seq %d, want %d", v.Seq(), len(base)+len(phase))
	}
	for i, name := range allNames {
		m, _ := v.MetricsOf(name)
		ab := afterBase[name]
		if ab.TotalRecodings != want[i].AfterBase.TotalRecodings || ab.MaxColor != want[i].AfterBase.MaxColor {
			t.Fatalf("%s after base: (%d,%d), RunPhases (%d,%d)", name,
				ab.TotalRecodings, ab.MaxColor, want[i].AfterBase.TotalRecodings, want[i].AfterBase.MaxColor)
		}
		if m.TotalRecodings != want[i].Final.TotalRecodings || m.MaxColor != want[i].Final.MaxColor {
			t.Fatalf("%s final: (%d,%d), RunPhases (%d,%d)", name,
				m.TotalRecodings, m.MaxColor, want[i].Final.TotalRecodings, want[i].Final.MaxColor)
		}
		if v.NodeCount() != want[i].Final.Nodes {
			t.Fatalf("nodes %d, RunPhases %d", v.NodeCount(), want[i].Final.Nodes)
		}
		// Materialized view assignment == live reference assignment.
		st, _ := ref.StrategyOf(sim.StrategyName(name))
		got, _ := v.Assignment(name)
		if !reflect.DeepEqual(got, st.Assignment()) {
			t.Fatalf("%s assignment differs from reference", name)
		}
	}

	// Digraph and topology, via the race-safe inspection hook.
	if err := s.inspect(func() {
		sameGraph(t, "final", s.eng.Network().Graph(), ref.Engine().Network().Graph())
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ref.Engine().Network().Nodes() {
		wantCfg, _ := ref.Engine().Network().Config(id)
		gotCfg, ok := v.Config(id)
		if !ok || gotCfg != wantCfg {
			t.Fatalf("view config of %d = %+v/%v, want %+v", id, gotCfg, ok, wantCfg)
		}
	}
}

// TestViewImmutability: a loaded view is frozen — applying more events
// publishes new views without disturbing it, across overlay folds.
func TestViewImmutability(t *testing.T) {
	base, phase := testScript(7, 50, 200)
	s, err := newSession("immutable", Config{Strategies: []string{"Minim"}}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	old := s.View()
	oldAssign, _ := old.Assignment("Minim")
	oldNodes := old.Nodes()
	for _, ev := range phase {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := old.Assignment("Minim"); !reflect.DeepEqual(got, oldAssign) {
		t.Fatal("old view's assignment changed after later events")
	}
	if !reflect.DeepEqual(old.Nodes(), oldNodes) {
		t.Fatal("old view's node set changed after later events")
	}
	if old.Seq() == s.View().Seq() {
		t.Fatal("view did not advance")
	}
}

// TestAdmissionControl: a full mailbox rejects with ErrBackpressure
// instead of queueing, and the session resumes once drained.
func TestAdmissionControl(t *testing.T) {
	s, err := newSession("backpressure", Config{Strategies: []string{"Minim"}, Mailbox: 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	insErr := make(chan error, 1)
	go func() {
		insErr <- s.inspect(func() { close(started); <-block })
	}()
	<-started

	// Writer is parked: exactly Mailbox submissions fit, the next bounces.
	p := workload.Defaults()
	evs := workload.JoinScript(3, p)
	for i := 0; i < 4; i++ {
		if err := s.Submit(evs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := s.Submit(evs[4]); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow submit: %v, want ErrBackpressure", err)
	}
	if err := s.Apply(evs[4]); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow apply: %v, want ErrBackpressure", err)
	}
	close(block)
	if err := <-insErr; err != nil {
		t.Fatal(err)
	}
	// The writer may still be draining the four queued events. Barrier
	// blocks for room instead of bouncing and returns once they are
	// applied, so the retry below cannot meet a full mailbox.
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(evs[4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := s.View().NodeCount(); got != 5 {
		t.Fatalf("nodes %d, want 5", got)
	}
}

// TestWatch: subscribers receive every per-event delta in order with the
// exact recoded maps; lagging subscribers are disconnected.
func TestWatch(t *testing.T) {
	base, _ := testScript(5, 30, 0)
	s, err := newSession("watch", Config{Strategies: []string{"Minim", "CP"}, WatchBuffer: 256}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ch, cancel := s.Watch()
	defer cancel()
	lag, lagCancel := s.Watch()
	_ = lagCancel
	// Shrink the lag subscriber's buffer by replacing it: watch buffers
	// are per-config, so emulate lag by simply not draining `lag`.

	ref, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim, sim.CP}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply([]strategy.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seq := 0
	for d := range ch {
		seq++
		if d.Seq != seq {
			t.Fatalf("delta seq %d, want %d", d.Seq, seq)
		}
		if d.Event != base[seq-1] {
			t.Fatalf("delta %d event %+v, want %+v", seq, d.Event, base[seq-1])
		}
		if len(d.Recoded) != 2 {
			t.Fatalf("delta %d has %d strategies", seq, len(d.Recoded))
		}
	}
	if seq != len(base) {
		t.Fatalf("received %d deltas, want %d", seq, len(base))
	}
	// The undrained subscriber must have been disconnected (closed
	// channel) — either from lag or from session close.
	for range lag {
	}
}

// TestWatchLagDisconnects: a subscriber with a tiny buffer that never
// drains is cut off while the session keeps running.
func TestWatchLagDisconnects(t *testing.T) {
	base, _ := testScript(9, 40, 0)
	s, err := newSession("lag", Config{Strategies: []string{"Minim"}, WatchBuffer: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ch, cancel := s.Watch()
	defer cancel()
	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for range ch { // closes after ~2 buffered deltas
		n++
	}
	if n > 2 {
		t.Fatalf("lagging subscriber received %d deltas, buffer is 2", n)
	}
	if err := s.Barrier(); err != nil {
		t.Fatalf("session unhealthy after disconnecting a laggard: %v", err)
	}
}

// TestTopologyRejectionKeepsSessionHealthy: a malformed event (duplicate
// join) is refused without poisoning the session or reaching the WAL.
func TestTopologyRejectionKeepsSessionHealthy(t *testing.T) {
	base, _ := testScript(21, 10, 0)
	s, err := newSession("reject", Config{Strategies: allNames}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Apply(base[0]); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if err := s.Apply(strategy.LeaveEvent(base[0].ID)); err != nil {
		t.Fatalf("session poisoned by rejected event: %v", err)
	}
	if got := s.View().NodeCount(); got != 9 {
		t.Fatalf("nodes %d, want 9", got)
	}
}

// TestManagerLifecycle: create/get/list/close, ID validation, duplicate
// rejection.
func TestManagerLifecycle(t *testing.T) {
	m := NewManager("")
	if _, err := m.Create("bad id!", Config{}); err == nil {
		t.Fatal("invalid id accepted")
	}
	s, err := m.Create("tenant-a", Config{Strategies: []string{"Minim"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("tenant-a", Config{}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := m.Create("tenant-b", Config{Strategies: []string{"CP"}}); err != nil {
		t.Fatal(err)
	}
	if got := m.List(); !reflect.DeepEqual(got, []string{"tenant-a", "tenant-b"}) {
		t.Fatalf("list = %v", got)
	}
	if got, ok := m.Get("tenant-a"); !ok || got != s {
		t.Fatal("get returned the wrong session")
	}
	if err := m.Close("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(strategy.LeaveEvent(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed session accepted an event: %v", err)
	}
	if err := m.Close("tenant-a"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("double close: %v", err)
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.List(); len(got) != 0 {
		t.Fatalf("list after CloseAll = %v", got)
	}
}
