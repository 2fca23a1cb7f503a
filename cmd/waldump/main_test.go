package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// TestDumpRoundTrip: a binary segment directory dumps to NDJSON whose
// lines decode back to the identical record sequence — the debug export
// loses nothing.
func TestDumpRoundTrip(t *testing.T) {
	snap := trace.Snapshot{
		Version: trace.SnapshotVersion,
		Seq:     3,
		Nodes:   []trace.NodeState{{ID: 1, X: 2, Y: 3, Range: 25}},
		Strategies: []trace.StrategyState{{
			Name:   "Minim",
			Assign: []trace.ColorEntry{{ID: 1, Color: 1}},
			Metrics: trace.MetricsState{
				Events: 3, TotalRecodings: 1, MaxColor: 1, PeakMaxColor: 1,
				RecodingsByKind: map[string]int{"join": 1},
			},
		}},
	}
	events := []strategy.Event{
		strategy.JoinEvent(2, adhoc.Config{Pos: geom.Point{X: 4, Y: 5}, Range: 30}),
		strategy.MoveEvent(2, geom.Point{X: 6, Y: 7}),
		strategy.PowerEvent(2, 40),
		strategy.LeaveEvent(2),
	}

	dir := t.TempDir()
	// Segment 1: snapshot + two events. Segment 2: two more + a barrier.
	var seg1, seg2 []byte
	var err error
	if seg1, err = trace.AppendSnapshotFrame(nil, snap); err != nil {
		t.Fatal(err)
	}
	seq := snap.Seq
	for _, ev := range events[:2] {
		seq++
		if seg1, err = trace.AppendEventFrame(seg1, seq, ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events[2:] {
		seq++
		if seg2, err = trace.AppendEventFrame(seg2, seq, ev); err != nil {
			t.Fatal(err)
		}
	}
	if seg2, err = trace.AppendBarrierFrame(seg2, seq); err != nil {
		t.Fatal(err)
	}
	// Torn tail on the last segment: half an event frame.
	torn, err := trace.AppendEventFrame(nil, seq+1, events[0])
	if err != nil {
		t.Fatal(err)
	}
	seg2 = append(seg2, torn[:len(torn)/2]...)
	if err := os.WriteFile(filepath.Join(dir, "000000001.seg"), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000000002.seg"), seg2, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, diag bytes.Buffer
	if err := dumpPath(&out, &diag, dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(diag.Bytes(), []byte("torn trailing bytes")) {
		t.Fatalf("torn tail not reported; diag: %q", diag.String())
	}

	// Every line of the dump is one standalone JSON record (the debug
	// contract), and together they hold the log's records unchanged.
	lines := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 1+len(events)+1 {
		t.Fatalf("dump holds %d lines, want %d", len(lines), 1+len(events)+1)
	}
	recs := make([]walRecord, len(lines))
	for i, ln := range lines {
		dec := json.NewDecoder(bytes.NewReader(ln))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&recs[i]); err != nil {
			t.Fatalf("line %d is not a JSON record: %v: %q", i, err, ln)
		}
	}
	if recs[0].Snap == nil || !reflect.DeepEqual(*recs[0].Snap, snap) {
		t.Fatalf("snapshot did not round-trip: %+v", recs[0].Snap)
	}
	for i, ev := range events {
		if recs[1+i].Ev == nil {
			t.Fatalf("line %d is not an event", 1+i)
		}
		got, err := trace.DecodeEvent(*recs[1+i].Ev)
		if err != nil || got != ev {
			t.Fatalf("event %d did not round-trip: %+v (%v)", i, got, err)
		}
	}
	if recs[len(recs)-1].Bar == nil || recs[len(recs)-1].Bar.Seq != seq {
		t.Fatalf("barrier did not round-trip: %+v", recs[len(recs)-1].Bar)
	}
}
