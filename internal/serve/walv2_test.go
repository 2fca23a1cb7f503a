package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestWALTornTailMatrixV2: truncate the active segment at EVERY byte
// offset spanning its final frames; each cut must open cleanly and
// recover exactly the records whose bytes are complete.
func TestWALTornTailMatrixV2(t *testing.T) {
	script := walScript(8)
	src := t.TempDir()
	walPath := filepath.Join(src, "torn.wal")
	cfg := Config{Strategies: allNames, SyncEvery: 1}
	s, err := newSession("torn", cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range script {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.abortForTest(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(walPath, segName(1))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Committed byte boundary after each record, via the same scanner
	// recovery uses.
	f, err := os.Open(segPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{0}
	sc := trace.NewRecordScanner(f)
	for {
		if _, err := sc.Next(); err != nil {
			break
		}
		bounds = append(bounds, sc.Committed())
	}
	f.Close()
	if int(bounds[len(bounds)-1]) != len(whole) {
		t.Fatalf("clean log has torn bytes: committed %d of %d", bounds[len(bounds)-1], len(whole))
	}
	if len(bounds) != len(script)+2 {
		t.Fatalf("expected %d records, found %d", len(script)+1, len(bounds)-1)
	}
	// Cut everywhere from inside the first event record to the end.
	for cut := int(bounds[1]); cut <= len(whole); cut++ {
		dir := filepath.Join(t.TempDir(), "cut.wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, tail, w, err := openWAL(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		w.close()
		n := 0
		for n+1 < len(bounds) && bounds[n+1] <= int64(cut) {
			n++
		}
		if wantEvents := n - 1; len(tail) != wantEvents {
			t.Fatalf("cut at %d: recovered %d events, want %d", cut, len(tail), wantEvents)
		}
		if snap.Seq != 0 {
			t.Fatalf("cut at %d: snapshot seq %d, want 0", cut, snap.Seq)
		}
	}
}

// TestWALAppendZeroAlloc is the allocation-regression gate on the hot
// append path: at steady state (warmed encode buffer, no rotation, no
// per-append fsync) one event append performs ZERO heap allocations.
func TestWALAppendZeroAlloc(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "alloc.wal")
	snap := trace.Snapshot{Version: trace.SnapshotVersion}
	w, err := createWAL(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	evs := walScript(4)
	for _, ev := range evs {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.append(evs[i%len(evs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("wal.append allocates %.1f times per record; want 0", allocs)
	}
}

// TestWALAppendZeroAllocInstrumented is the same gate with a full
// metrics bundle attached: counter increments and trace-ring stores on
// the append path must not reintroduce allocations.
func TestWALAppendZeroAllocInstrumented(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "alloc-obs.wal")
	snap := trace.Snapshot{Version: trace.SnapshotVersion}
	w, err := createWAL(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	mx := NewMetrics(obs.NewRegistry(), obs.NewTraceHub(obs.DefaultTraceRing))
	w.obs = mx.forWAL("alloc-obs")
	evs := walScript(4)
	for _, ev := range evs {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.append(evs[i%len(evs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("instrumented wal.append allocates %.1f times per record; want 0", allocs)
	}
	if got := w.obs.records.Value(); got == 0 {
		t.Fatal("instrumented append did not count records")
	}
}

// TestWALSeqTracking: the wal's internal sequence counter — which
// stamps every appended frame — survives reopen and compaction.
func TestWALSeqTracking(t *testing.T) {
	script := walScript(6)
	dir := filepath.Join(t.TempDir(), "seq.wal")
	snap := trace.Snapshot{Version: trace.SnapshotVersion}
	w, err := createWAL(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range script[:4] {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, tail, w2, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 4 || w2.seq != 4 {
		t.Fatalf("reopened wal at seq %d with %d events, want 4/4", w2.seq, len(tail))
	}
	for _, ev := range script[4:] {
		if err := w2.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	// Frames on disk carry seqs 1..6.
	recs, _, err := TailWAL(dir, WALPos{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range recs {
		if r.Ev == nil {
			continue
		}
		want++
		if r.Seq != want {
			t.Fatalf("event frame carries seq %d, want %d", r.Seq, want)
		}
	}
	if want != len(script) {
		t.Fatalf("tailed %d events, want %d", want, len(script))
	}
}
