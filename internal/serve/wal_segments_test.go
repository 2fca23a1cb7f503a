package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/strategy"
	"repro/internal/trace"
)

// walScript returns n deterministic join events (always appendable).
func walScript(n int) []strategy.Event {
	base, _ := testScript(37, n, 0)
	return base
}

// TestWALSegmentRotation: with a small SegmentBytes the log splits into
// several sealed files plus an active one, and opening it back yields
// the full event tail in order.
func TestWALSegmentRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "seg.wal")
	w, err := createWAL(dir, trace.Snapshot{Version: trace.SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 256
	script := walScript(40)
	for _, ev := range script {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	_, tail, r, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.abort()
	if !reflect.DeepEqual(tail, script) {
		t.Fatalf("reopened tail has %d events, want %d (or order differs)", len(tail), len(script))
	}
}

// TestWALSyncEveryAcrossSegments: the SyncEvery counter keeps counting
// through a rotation — appends land durably even when the flush+fsync
// window spans a segment boundary. The crash uses abort (no final
// flush), so only synced bytes survive.
func TestWALSyncEveryAcrossSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sync.wal")
	w, err := createWAL(dir, trace.Snapshot{Version: trace.SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 200
	w.syncEvery = 3
	script := walScript(20)
	for _, ev := range script {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	w.abort() // crash: at most syncEvery-1 trailing events may be lost
	_, tail, r, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.abort()
	if len(tail) < len(script)-2 {
		t.Fatalf("recovered %d of %d events; syncEvery=3 may lose at most 2", len(tail), len(script))
	}
	if !reflect.DeepEqual(tail, script[:len(tail)]) {
		t.Fatal("recovered tail is not a prefix of the appended script")
	}
}

// TestWALCompactionRetiresSegments: compaction publishes a
// next-numbered snapshot segment and deletes every sealed predecessor;
// reopening restores from the new snapshot with an empty tail.
func TestWALCompactionRetiresSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "compact.wal")
	w, err := createWAL(dir, trace.Snapshot{Version: trace.SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 256
	script := walScript(30)
	for _, ev := range script {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := listSegments(dir)
	if len(before) < 2 {
		t.Fatalf("want multiple segments before compaction, got %v", before)
	}
	snap := trace.Snapshot{Version: trace.SnapshotVersion, Seq: len(script)}
	if err := w.compact(snap); err != nil {
		t.Fatal(err)
	}
	after, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0] != before[len(before)-1]+1 {
		t.Fatalf("compaction left segments %v (had %v)", after, before)
	}
	// Appends continue into the snapshot segment.
	extra := walScript(35)[30:]
	for _, ev := range extra {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, tail, r, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.abort()
	if got.Seq != len(script) {
		t.Fatalf("reopened snapshot seq %d, want %d", got.Seq, len(script))
	}
	if !reflect.DeepEqual(tail, extra) {
		t.Fatalf("post-compaction tail %d events, want %d", len(tail), len(extra))
	}
}

// TestWALInterruptedCompaction: a crash after the snapshot segment's
// rename but before the old segments were deleted leaves both
// generations on disk; open must prefer the newest snapshot and retire
// the stale files.
func TestWALInterruptedCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "interrupted.wal")
	w, err := createWAL(dir, trace.Snapshot{Version: trace.SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	script := walScript(10)
	for _, ev := range script {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the compaction crash: write the snapshot segment by hand
	// and "die" before deleting segment 1.
	frame, err := trace.AppendSnapshotFrame(nil, trace.Snapshot{Version: trace.SnapshotVersion, Seq: len(script)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	got, tail, r, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.abort()
	if got.Seq != len(script) || len(tail) != 0 {
		t.Fatalf("open picked snapshot seq %d with %d tail events, want %d and 0", got.Seq, len(tail), len(script))
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("stale segments not retired: %v", segs)
	}
}

// TestWALInterruptedCompactionTornOldSegment: compact() closes the old
// active segment without flushing its buffer, so the superseded file
// may end mid-record. A crash between the snapshot segment's rename
// and the predecessor deletion must still recover — newest snapshot
// wins and the torn superseded file is retired unread, never reported
// as corruption.
func TestWALInterruptedCompactionTornOldSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "interrupted-torn.wal")
	w, err := createWAL(dir, trace.Snapshot{Version: trace.SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	script := walScript(8)
	for _, ev := range script {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Tear the old segment's tail (a buffered partial frame the dying
	// compaction never flushed) ...
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := trace.AppendEventFrame(nil, len(script)+1, script[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// ... and publish the compaction's snapshot segment, dying before
	// the deletes.
	frame, err := trace.AppendSnapshotFrame(nil, trace.Snapshot{Version: trace.SnapshotVersion, Seq: len(script)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	got, tail, r, err := openWAL(dir)
	if err != nil {
		t.Fatalf("open after interrupted compaction with torn predecessor: %v", err)
	}
	r.abort()
	if got.Seq != len(script) || len(tail) != 0 {
		t.Fatalf("recovered snapshot seq %d with %d tail events, want %d and 0", got.Seq, len(tail), len(script))
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("torn superseded segment not retired: %v", segs)
	}
}

// TestWALTornSealedSegmentIsCorruption: a torn record is tolerated only
// in the final (active) segment; inside a sealed one it fails the open
// loudly.
func TestWALTornSealedSegmentIsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "torn-sealed.wal")
	w, err := createWAL(dir, trace.Snapshot{Version: trace.SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 200
	for _, ev := range walScript(20) {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %v", segs)
	}
	// Tear the first (sealed) segment's final newline off.
	p := filepath.Join(dir, segName(segs[0]))
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWAL(dir); err == nil {
		t.Fatal("open accepted a torn sealed segment")
	}
}
