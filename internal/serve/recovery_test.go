package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// refState drives a reference engine session over a script prefix and
// returns its per-strategy assignments and metrics.
func refState(t *testing.T, names []string, events []strategy.Event) (map[string]toca.Assignment, map[string]*strategy.Metrics, *sim.EngineSession) {
	t.Helper()
	simNames := make([]sim.StrategyName, len(names))
	for i, n := range names {
		simNames[i] = sim.StrategyName(n)
	}
	ref, err := sim.NewEngineSession(simNames, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Apply(events); err != nil {
		t.Fatal(err)
	}
	assigns := map[string]toca.Assignment{}
	metrics := map[string]*strategy.Metrics{}
	for _, n := range names {
		st, _ := ref.StrategyOf(sim.StrategyName(n))
		assigns[n] = st.Assignment()
		metrics[n], _ = ref.MetricsOf(sim.StrategyName(n))
	}
	return assigns, metrics, ref
}

// assertStateEquals compares a session's live state (assignments,
// metrics, topology, seq) against the reference, bit for bit.
func assertStateEquals(t *testing.T, tag string, s *Session, names []string, ref *sim.EngineSession, wantSeq int) {
	t.Helper()
	if err := s.inspect(func() {
		if s.seq != wantSeq {
			t.Fatalf("%s: seq %d, want %d", tag, s.seq, wantSeq)
		}
		sameGraph(t, tag, s.eng.Network().Graph(), ref.Engine().Network().Graph())
		for _, id := range ref.Engine().Network().Nodes() {
			wc, _ := ref.Engine().Network().Config(id)
			gc, ok := s.eng.Network().Config(id)
			if !ok || gc != wc {
				t.Fatalf("%s: config of %d = %+v/%v, want %+v", tag, id, gc, ok, wc)
			}
		}
		for i, name := range names {
			rs, _ := ref.StrategyOf(sim.StrategyName(name))
			if !reflect.DeepEqual(s.hosted[i].Assignment(), rs.Assignment()) {
				t.Fatalf("%s: %s assignment differs", tag, name)
			}
			rm, _ := ref.MetricsOf(sim.StrategyName(name))
			if !reflect.DeepEqual(s.metrics[i], rm) {
				t.Fatalf("%s: %s metrics %+v, want %+v", tag, name, s.metrics[i], rm)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryAtRandomEvent is the acceptance crash test: kill a
// session at a random event (no final flush, snapshot, or fsync beyond
// what group commit already pushed), reopen its WAL, and the restored
// session must be bit-identical to the pre-crash state — and must accept
// the remainder of the script to finish identical to an uncrashed run.
func TestCrashRecoveryAtRandomEvent(t *testing.T) {
	base, phase := testScript(17, 40, 160)
	script := append(append([]strategy.Event(nil), base...), phase...)
	rng := xrand.New(41)
	for trial := 0; trial < 4; trial++ {
		k := 1 + rng.Intn(len(script)-1)
		dir := t.TempDir()
		walPath := filepath.Join(dir, "crash.wal")
		// CompactEvery 32 so most trials cross at least one compaction;
		// SyncEvery 1 emulates per-event group commit reaching the OS;
		// a tiny SegmentBytes forces the log across many segment files.
		cfg := Config{Strategies: allNames, CompactEvery: 32, SyncEvery: 1, SegmentBytes: 512}
		s, err := newSession("crash", cfg, walPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range script[:k] {
			if err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.abortForTest(); err != nil {
			t.Fatal(err)
		}

		_, _, ref := refState(t, allNames, script[:k])
		r, err := restoreSession("crash", cfg, walPath)
		if err != nil {
			t.Fatalf("trial %d (k=%d): %v", trial, k, err)
		}
		assertStateEquals(t, "restored", r, allNames, ref, k)

		// The view must reflect the restored state too.
		v := r.View()
		for _, name := range allNames {
			rs, _ := ref.StrategyOf(sim.StrategyName(name))
			got, _ := v.Assignment(name)
			if !reflect.DeepEqual(got, rs.Assignment()) {
				t.Fatalf("trial %d: restored view %s assignment differs", trial, name)
			}
		}

		// Accept further events: finish the script and compare to an
		// uncrashed full run.
		for _, ev := range script[k:] {
			if err := r.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		_, _, full := refState(t, allNames, script)
		assertStateEquals(t, "resumed", r, allNames, full, len(script))
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryAfterGracefulClose: Close compacts the WAL to a single
// snapshot line; reopening restores the identical state without
// replaying any tail.
func TestRecoveryAfterGracefulClose(t *testing.T) {
	base, phase := testScript(19, 30, 80)
	script := append(append([]strategy.Event(nil), base...), phase...)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "graceful.wal")
	cfg := Config{Strategies: allNames}
	s, err := newSession("graceful", cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range script {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted file must hold exactly one snapshot record.
	snap, tail, w, err := openWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	w.abort()
	if len(tail) != 0 {
		t.Fatalf("compacted WAL still has %d tail events", len(tail))
	}
	if snap.Seq != len(script) {
		t.Fatalf("snapshot seq %d, want %d", snap.Seq, len(script))
	}

	_, _, ref := refState(t, allNames, script)
	r, err := restoreSession("graceful", cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertStateEquals(t, "graceful", r, allNames, ref, len(script))
}

// TestRecoveryTornTail: a partial trailing frame (a crash mid-append)
// is truncated on open; the recovered state corresponds to the
// committed prefix.
func TestRecoveryTornTail(t *testing.T) {
	base, _ := testScript(23, 25, 0)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "torn.wal")
	cfg := Config{Strategies: []string{"Minim"}, SyncEvery: 1, CompactEvery: -1}
	s, err := newSession("torn", cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.abortForTest(); err != nil {
		t.Fatal(err)
	}
	segPath, err := lastSegmentPath(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := trace.AppendEventFrame(nil, len(base)+1, strategy.JoinEvent(7777, adhoc.Config{Pos: geom.Point{X: 3}, Range: 25}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, ref := refState(t, []string{"Minim"}, base)
	r, err := restoreSession("torn", cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertStateEquals(t, "torn", r, []string{"Minim"}, ref, len(base))
}

// TestManagerOpen: the manager-level recovery path (Open) restores a
// crashed session and rejects opening a live ID or a mismatched config.
func TestManagerOpen(t *testing.T) {
	base, _ := testScript(31, 20, 0)
	dir := t.TempDir()
	m := NewManager(dir)
	cfg := Config{Strategies: []string{"Minim", "CP"}, SyncEvery: 1}
	s, err := m.Create("tenant", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.abortForTest(); err != nil {
		t.Fatal(err)
	}
	// The registry still holds the dead session; a real process restart
	// starts from an empty registry.
	m2 := NewManager(dir)
	if _, err := m2.Open("tenant", Config{Strategies: []string{"BBB"}}); err == nil {
		t.Fatal("mismatched strategies accepted on open")
	}
	r, err := m2.Open("tenant", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Open("tenant", cfg); err == nil {
		t.Fatal("double open accepted")
	}
	if r.View().Seq() != len(base) {
		t.Fatalf("recovered seq %d, want %d", r.View().Seq(), len(base))
	}
	if err := m2.Close("tenant"); err != nil {
		t.Fatal(err)
	}
}
