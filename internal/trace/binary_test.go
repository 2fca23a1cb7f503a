package trace

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
)

func testEvents() []strategy.Event {
	return []strategy.Event{
		strategy.JoinEvent(1, adhoc.Config{Pos: geom.Point{X: 1.5, Y: -2.25}, Range: 30}),
		strategy.JoinEvent(7, adhoc.Config{Pos: geom.Point{X: -0.001, Y: 1e9}, Range: 0}),
		strategy.MoveEvent(1, geom.Point{X: math.Pi, Y: -math.SmallestNonzeroFloat64}),
		strategy.PowerEvent(7, 55.5),
		strategy.LeaveEvent(1),
	}
}

func testSnapshot() Snapshot {
	return Snapshot{
		Version: SnapshotVersion,
		Seq:     42,
		Nodes: []NodeState{
			{ID: 1, X: 1.5, Y: -2.25, Range: 30},
			{ID: 7, X: -0.001, Y: 1e9, Range: 0},
		},
		Strategies: []StrategyState{
			{
				Name:   "minim",
				Assign: []ColorEntry{{ID: 1, Color: 2}, {ID: 7, Color: 1}},
				Metrics: MetricsState{
					Events: 42, TotalRecodings: 9, MaxColor: 2, PeakMaxColor: 3,
					RecodingsByKind: map[string]int{"join": 5, "move": 4},
				},
			},
			{Name: "cp", Metrics: MetricsState{Events: 42}},
		},
	}
}

// encodeStream builds a v2 stream: snapshot, the test events, a barrier.
func encodeStream(t *testing.T) ([]byte, []Record) {
	t.Helper()
	snap := testSnapshot()
	var buf []byte
	var err error
	if buf, err = AppendSnapshotFrame(buf, snap); err != nil {
		t.Fatal(err)
	}
	want := []Record{{Snap: &snap, Seq: snap.Seq}}
	seq := snap.Seq
	for _, ev := range testEvents() {
		seq++
		ev := ev
		if buf, err = AppendEventFrame(buf, seq, ev); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Ev: &ev, Seq: seq})
	}
	if buf, err = AppendBarrierFrame(buf, seq); err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{Barrier: &Barrier{Seq: seq}, Seq: seq})
	return buf, want
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq {
			t.Fatalf("record %d: seq %d, want %d", i, g.Seq, w.Seq)
		}
		switch {
		case w.Snap != nil:
			if g.Snap == nil || !reflect.DeepEqual(*g.Snap, *w.Snap) {
				t.Fatalf("record %d: snapshot %+v, want %+v", i, g.Snap, w.Snap)
			}
		case w.Ev != nil:
			if g.Ev == nil || *g.Ev != *w.Ev {
				t.Fatalf("record %d: event %+v, want %+v", i, g.Ev, w.Ev)
			}
		case w.Barrier != nil:
			if g.Barrier == nil || *g.Barrier != *w.Barrier {
				t.Fatalf("record %d: barrier %+v, want %+v", i, g.Barrier, w.Barrier)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	buf, want := encodeStream(t)
	got, off, err := ReadRecords(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(len(buf)) {
		t.Fatalf("committed offset %d, want %d", off, len(buf))
	}
	sameRecords(t, got, want)
}

// TestFrameCapture: ReadRecordsAt attaches each v2 record's exact
// on-disk bytes, and re-encoding a captured record reproduces them.
func TestFrameCapture(t *testing.T) {
	buf, _ := encodeStream(t)
	recs, off, err := ReadRecordsAt(bytes.NewReader(buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(len(buf)) {
		t.Fatalf("committed offset %d, want %d", off, len(buf))
	}
	var rejoined []byte
	for i, r := range recs {
		if r.Frame == nil {
			t.Fatalf("record %d: no captured frame", i)
		}
		rejoined = append(rejoined, r.Frame...)
	}
	if !bytes.Equal(rejoined, buf) {
		t.Fatal("concatenated captured frames differ from the original stream")
	}
	for i, r := range recs {
		if r.Ev == nil {
			continue
		}
		re, err := AppendEventFrame(nil, r.Seq, *r.Ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, r.Frame) {
			t.Fatalf("record %d: re-encode differs from captured frame", i)
		}
	}
}

// TestTornTailMatrix: truncating a v2 stream at EVERY byte offset either
// recovers the complete-record prefix cleanly (a torn final record is
// ignored) or — never — errors or invents records.
func TestTornTailMatrix(t *testing.T) {
	buf, want := encodeStream(t)
	// Committed byte boundary after each record.
	bounds := []int64{0}
	sc := NewRecordScanner(bytes.NewReader(buf))
	for {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, sc.Committed())
	}
	for cut := 0; cut <= len(buf); cut++ {
		got, off, err := ReadRecords(bytes.NewReader(buf[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		n := 0
		for n+1 < len(bounds) && bounds[n+1] <= int64(cut) {
			n++
		}
		if off != bounds[n] {
			t.Fatalf("cut at %d: committed %d, want %d", cut, off, bounds[n])
		}
		sameRecords(t, got, want[:n])
	}
}

func TestCorruptStreams(t *testing.T) {
	valid, _ := encodeStream(t)
	cases := map[string][]byte{
		"unknown leading byte":   append([]byte{0x00}, valid...),
		"NDJSON record line":     []byte(`{"ev":{"kind":"leave","id":1}}` + "\n"),
		"unknown frame type":     {FrameMagic, 0x7f, 0x01, 0x00},
		"oversized length":       {FrameMagic, frameEvent, 0x01, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"barrier with payload":   {FrameMagic, frameBarrier, 0x01, 0x01, 0xaa},
		"event bad kind":         {FrameMagic, frameEvent, 0x01, 0x09, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8},
		"event trailing payload": {FrameMagic, frameEvent, 0x01, 0x0a, 0x02, 1, 2, 3, 4, 5, 6, 7, 8, 0xee},
	}
	for name, stream := range cases {
		if _, _, err := ReadRecords(bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: corrupt stream read back cleanly", name)
		}
	}
}

// TestLyingLengthAllocatesLazily: a frame header declaring a 192 MiB
// payload that the stream never delivers is a torn tail, and reading it
// allocates what arrived, not what was declared.
func TestLyingLengthAllocatesLazily(t *testing.T) {
	stream := []byte{FrameMagic, frameEvent, 0x01, 0x80, 0x80, 0x80, 0x60}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sc := NewRecordScanner(bytes.NewReader(stream))
	_, err := sc.Next()
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("Next = %v, want io.EOF (torn tail)", err)
	}
	if sc.Committed() != 0 {
		t.Fatalf("committed %d, want 0", sc.Committed())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a 7-byte stream allocated %d bytes", got)
	}
}

// FuzzDecodeRecord: arbitrary bytes never panic the scanner; they
// decode, report a torn tail, or fail loudly. A stream that does not
// start with a frame (an NDJSON line, say) always fails.
func FuzzDecodeRecord(f *testing.F) {
	valid, _ := func() ([]byte, []Record) {
		snap := testSnapshot()
		buf, _ := AppendSnapshotFrame(nil, snap)
		buf, _ = AppendEventFrame(buf, 43, strategy.LeaveEvent(1))
		return buf, nil
	}()
	f.Add(valid)
	f.Add([]byte(`{"ev":{"kind":"leave","id":1}}` + "\n"))
	f.Add([]byte{FrameMagic, frameBarrier, 0x05, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(data) > 0 && data[0] != FrameMagic {
			t.Fatalf("stream starting with 0x%02x read back cleanly", data[0])
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("committed offset %d outside [0,%d]", off, len(data))
		}
		// The committed prefix must re-read to the same records.
		again, off2, err := ReadRecords(bytes.NewReader(data[:off]))
		if err != nil || off2 != off || len(again) != len(recs) {
			t.Fatalf("committed prefix re-read: %d records @%d, err %v (want %d @%d)", len(again), off2, err, len(recs), off)
		}
	})
}

// FuzzFrameRoundTrip: every representable event encodes to a frame that
// decodes back to exactly itself.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(0, int64(1), 1.0, 2.0, 30.0, uint(5))
	f.Add(1, int64(-3), 0.0, 0.0, 0.0, uint(0))
	f.Add(2, int64(1<<40), math.Inf(1), -0.0, 1e-300, uint(1000))
	f.Add(3, int64(7), 1.0, 2.0, math.MaxFloat64, uint(77))
	f.Fuzz(func(t *testing.T, kind int, id int64, x, y, r float64, seq uint) {
		var ev strategy.Event
		switch ((kind % 4) + 4) % 4 {
		case 0:
			if !(r >= 0) {
				r = 0
			}
			ev = strategy.JoinEvent(graph.NodeID(id), adhoc.Config{Pos: geom.Point{X: x, Y: y}, Range: r})
		case 1:
			ev = strategy.LeaveEvent(graph.NodeID(id))
		case 2:
			ev = strategy.MoveEvent(graph.NodeID(id), geom.Point{X: x, Y: y})
		case 3:
			if !(r >= 0) {
				r = 0
			}
			ev = strategy.PowerEvent(graph.NodeID(id), r)
		}
		s := int(seq % (1 << 40))
		frame, err := AppendEventFrame(nil, s, ev)
		if err != nil {
			t.Fatal(err)
		}
		recs, off, err := ReadRecords(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(len(frame)) || len(recs) != 1 || recs[0].Ev == nil {
			t.Fatalf("frame did not decode to one committed event (off %d/%d, %d recs)", off, len(frame), len(recs))
		}
		if recs[0].Seq != s {
			t.Fatalf("seq %d, want %d", recs[0].Seq, s)
		}
		got := *recs[0].Ev
		if got != ev && !(eventNaNEqual(got, ev)) {
			t.Fatalf("round trip changed event: %+v -> %+v", ev, got)
		}
	})
}

// eventNaNEqual treats NaN coordinates as equal to themselves so the
// fuzzer can assert bit-faithful round trips on NaN inputs too.
func eventNaNEqual(a, b strategy.Event) bool {
	f := func(v float64) uint64 { return math.Float64bits(v) }
	return a.Kind == b.Kind && a.ID == b.ID &&
		f(a.Cfg.Pos.X) == f(b.Cfg.Pos.X) && f(a.Cfg.Pos.Y) == f(b.Cfg.Pos.Y) && f(a.Cfg.Range) == f(b.Cfg.Range) &&
		f(a.Pos.X) == f(b.Pos.X) && f(a.Pos.Y) == f(b.Pos.Y) && f(a.R) == f(b.R)
}
