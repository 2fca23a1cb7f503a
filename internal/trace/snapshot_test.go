package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// snapshotFixture drives a short session and captures its state.
func snapshotFixture(t *testing.T) (Snapshot, *sim.EngineSession) {
	t.Helper()
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim, sim.CP}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(sampleScript()); err != nil {
		t.Fatal(err)
	}
	names := []string{"Minim", "CP"}
	assigns := make([]toca.Assignment, len(names))
	metrics := make([]*strategy.Metrics, len(names))
	for i, n := range names {
		st, _ := sess.StrategyOf(sim.StrategyName(n))
		assigns[i] = st.Assignment()
		metrics[i], _ = sess.MetricsOf(sim.StrategyName(n))
	}
	snap, err := CaptureSnapshot(sess.Engine().Seq(), sess.Engine().Network(), names, assigns, metrics)
	if err != nil {
		t.Fatal(err)
	}
	return snap, sess
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap, sess := snapshotFixture(t)
	frame, err := AppendSnapshotFrame(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	recs, off, err := ReadRecords(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if off == 0 || len(recs) != 1 || recs[0].Snap == nil {
		t.Fatalf("recs=%d off=%d", len(recs), off)
	}
	got := *recs[0].Snap
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
	// The materialized assignment must equal the live one.
	st, _ := sess.StrategyOf(sim.Minim)
	if !reflect.DeepEqual(got.Strategies[0].Assignment(), st.Assignment()) {
		t.Fatal("materialized Minim assignment differs")
	}
	m, err := got.Strategies[1].RestoreMetrics()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sess.MetricsOf(sim.CP)
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("restored CP metrics %+v, want %+v", m, want)
	}
	// Topology round trip.
	ids, cfgs := got.Configs()
	net := adhoc.New()
	for i, id := range ids {
		if err := net.Join(id, cfgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ref := sess.Engine().Network()
	if net.Size() != ref.Size() {
		t.Fatalf("restored %d nodes, want %d", net.Size(), ref.Size())
	}
	for _, id := range ref.Nodes() {
		rc, _ := ref.Config(id)
		gc, ok := net.Config(id)
		if !ok || gc != rc {
			t.Fatalf("node %d config %+v, want %+v (ok=%v)", id, gc, rc, ok)
		}
	}
}

// forgeSnapshotFrame encodes s as a snapshot frame without the writer's
// validation, so tests can hand the reader snapshots the writer refuses.
func forgeSnapshotFrame(t *testing.T, s Snapshot) []byte {
	t.Helper()
	payload, err := appendSnapshotPayload(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	return forgeFrame(frameSnapshot, uint64(s.Seq), payload)
}

// forgeFrame encodes a frame header of the given type and seq around an
// arbitrary payload.
func forgeFrame(typ byte, seq uint64, payload []byte) []byte {
	f := []byte{FrameMagic, typ}
	f = binary.AppendUvarint(f, seq)
	f = binary.AppendUvarint(f, uint64(len(payload)))
	return append(f, payload...)
}

func TestSnapshotBadVersionRejected(t *testing.T) {
	snap, _ := snapshotFixture(t)
	snap.Version = SnapshotVersion + 1
	if _, err := AppendSnapshotFrame(nil, snap); err == nil {
		t.Fatal("writer accepted unknown snapshot version")
	}
	// Forge the frame directly: the reader must reject it too.
	bad := forgeSnapshotFrame(t, Snapshot{Version: 99})
	if _, _, err := ReadRecords(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("reader accepted unknown version, err=%v", err)
	}
}

func TestSnapshotValidation(t *testing.T) {
	leave, err := AppendEventFrame(nil, 1, strategy.LeaveEvent(1))
	if err != nil {
		t.Fatal(err)
	}
	leavePayload := leave[4:] // magic, type, seq 1, length 9: one byte each
	empty, err := appendSnapshotPayload(nil, Snapshot{Version: SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	node := func(id int, rng float64) NodeState { return NodeState{ID: id, Range: rng} }
	minim := func(id, color int) []StrategyState {
		return []StrategyState{{Name: "Minim", Assign: []ColorEntry{{ID: id, Color: color}}}}
	}
	cases := map[string][]byte{
		"negative seq":          forgeSnapshotFrame(t, Snapshot{Version: 1, Seq: -1}),
		"repeated node":         forgeSnapshotFrame(t, Snapshot{Version: 1, Nodes: []NodeState{node(1, 1), {ID: 1, X: 2, Y: 2, Range: 1}}}),
		"negative range":        forgeSnapshotFrame(t, Snapshot{Version: 1, Nodes: []NodeState{node(1, -2)}}),
		"color for absent node": forgeSnapshotFrame(t, Snapshot{Version: 1, Strategies: minim(7, 1)}),
		"non-positive color":    forgeSnapshotFrame(t, Snapshot{Version: 1, Nodes: []NodeState{node(7, 1)}, Strategies: minim(7, 0)}),
		"snapshot and event":    forgeFrame(frameSnapshot, 0, append(empty, leavePayload...)),
		"no record kind":        forgeFrame(0x00, 0, nil),
	}
	for name, frame := range cases {
		if _, _, err := ReadRecords(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: malformed snapshot accepted: % x", name, frame)
		}
	}
}

// appendEvents appends one event frame per event, with seqs from+1 on.
func appendEvents(t *testing.T, buf *bytes.Buffer, from int, evs []strategy.Event) {
	t.Helper()
	var frame []byte
	var err error
	for i, ev := range evs {
		if frame, err = AppendEventFrame(frame[:0], from+1+i, ev); err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
}

// snapshotStream starts a stream with snap's frame.
func snapshotStream(t *testing.T, snap Snapshot) *bytes.Buffer {
	t.Helper()
	frame, err := AppendSnapshotFrame(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(frame)
}

func TestWALTornTailIgnored(t *testing.T) {
	snap, _ := snapshotFixture(t)
	buf := snapshotStream(t, snap)
	appendEvents(t, buf, snap.Seq, sampleScript()[:3])
	committed := buf.Len()
	// Simulate a crash mid-append: half a join frame.
	join := strategy.JoinEvent(9, adhoc.Config{Range: 30})
	frame, err := AppendEventFrame(nil, snap.Seq+4, join)
	if err != nil {
		t.Fatal(err)
	}
	half := len(frame) / 2
	buf.Write(frame[:half])
	recs, off, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if off != int64(committed) {
		t.Fatalf("committed offset %d, want %d", off, committed)
	}
	// Completing the frame with bytes its payload cannot hold (a NaN
	// range) is corruption, not a torn tail.
	buf.Write(bytes.Repeat([]byte{0xff}, len(frame)-half))
	if _, _, err := ReadRecords(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("complete malformed frame accepted")
	}
}

// TestReadRecordsAt: offset-addressed reads resume exactly where a
// previous read stopped — the shipper's tailing pattern: read, writer
// appends (possibly tearing the last frame), read again from the
// returned offset, and the concatenation equals one full read.
func TestReadRecordsAt(t *testing.T) {
	snap, _ := snapshotFixture(t)
	script := sampleScript()
	buf := snapshotStream(t, snap)
	appendEvents(t, buf, snap.Seq, script[:2])
	first, off, err := ReadRecordsAt(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || off != int64(buf.Len()) {
		t.Fatalf("first read: %d records to offset %d (buffer %d)", len(first), off, buf.Len())
	}

	// The writer appends more, with a torn final frame.
	appendEvents(t, buf, snap.Seq+2, script[2:])
	committed := buf.Len()
	torn, err := AppendEventFrame(nil, snap.Seq+len(script)+1, strategy.MoveEvent(1, geom.Point{X: 1, Y: 2}))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(torn[:len(torn)-3])
	second, off2, err := ReadRecordsAt(bytes.NewReader(buf.Bytes()), off)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(script)-2 {
		t.Fatalf("second read: %d records, want %d", len(second), len(script)-2)
	}
	if off2 != int64(committed) {
		t.Fatalf("second read stopped at %d, want committed %d", off2, committed)
	}
	for i, r := range second {
		if r.Ev == nil || !reflect.DeepEqual(*r.Ev, script[2+i]) {
			t.Fatalf("record %d of second read differs", i)
		}
	}
}

// TestBarrierRecordRoundTrip: compaction barriers are first-class WAL
// records — they interleave with snapshots and events, round-trip with
// their seq intact, and malformed ones are rejected.
func TestBarrierRecordRoundTrip(t *testing.T) {
	snap, _ := snapshotFixture(t)
	script := sampleScript()
	buf := snapshotStream(t, snap)
	appendEvents(t, buf, snap.Seq, script[:1])
	barrier, err := AppendBarrierFrame(nil, 41)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(barrier)
	appendEvents(t, buf, snap.Seq+1, script[1:2])
	recs, _, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[2].Barrier == nil || recs[2].Barrier.Seq != 41 || recs[2].Seq != 41 {
		t.Fatalf("record 2 = %+v, want barrier at seq 41", recs[2])
	}
	if recs[1].Ev == nil || recs[3].Ev == nil {
		t.Fatal("events around the barrier lost")
	}
	if _, err := AppendBarrierFrame(nil, -1); err == nil {
		t.Fatal("negative barrier seq accepted")
	}
	// A committed frame with a negative barrier seq is corruption.
	bad := forgeFrame(frameBarrier, uint64(1<<64-3), nil)
	if _, _, err := ReadRecords(bytes.NewReader(bad)); err == nil {
		t.Fatal("negative barrier record accepted on read")
	}
	// A barrier frame that also carries an event is rejected.
	leave, err := AppendEventFrame(nil, 1, strategy.LeaveEvent(1))
	if err != nil {
		t.Fatal(err)
	}
	dup := forgeFrame(frameBarrier, 1, leave[4:])
	if _, _, err := ReadRecords(bytes.NewReader(dup)); err == nil {
		t.Fatal("two-kinded record accepted")
	}
}
