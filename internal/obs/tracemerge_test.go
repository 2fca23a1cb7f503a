package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// mkEntries is shorthand for hand-built ring contents.
func mkEntries(member string, es ...TraceEntry) []TraceEntry {
	for i := range es {
		es[i].Member = member
	}
	return es
}

// TestMergeTracesEndToEnd: a primary's and a follower's rings merge
// into one per-seq waterfall with aligned timestamps, spans in time
// order, per-stage percentiles, and both members reported.
func TestMergeTracesEndToEnd(t *testing.T) {
	primary := MemberTrace{Member: "a", Entries: mkEntries("a",
		TraceEntry{Seq: 1, Stage: "enqueue", At: 100},
		TraceEntry{Seq: 1, Stage: "apply", At: 200},
		TraceEntry{Seq: 1, Stage: "ship", At: 300},
		TraceEntry{Seq: 1, Stage: "follower-ack", At: 900},
	)}
	// The follower's clock runs 50ns ahead (OffsetNs 50): raw stamps
	// 450/500/550 align to 400/450/500, inside the [300, 900] window.
	follower := MemberTrace{Member: "b", OffsetNs: 50, Entries: mkEntries("b",
		TraceEntry{Seq: 1, Stage: "follower-wal-append", At: 450},
		TraceEntry{Seq: 1, Stage: "follower-fsync", At: 500},
		TraceEntry{Seq: 1, Stage: "follower-ack", At: 550},
	)}
	m := MergeTraces("s", []MemberTrace{primary, follower})
	if len(m.Events) != 1 || m.Events[0].Seq != 1 {
		t.Fatalf("merged events: %+v", m.Events)
	}
	ev := m.Events[0]
	if len(ev.Spans) != 7 {
		t.Fatalf("want 7 spans, got %d: %+v", len(ev.Spans), ev.Spans)
	}
	// Aligned and sorted: the follower's spans land between ship and the
	// primary's ack receipt.
	var order []string
	prevAt := int64(-1)
	for _, sp := range ev.Spans {
		order = append(order, sp.Member+":"+sp.Stage)
		if sp.At < prevAt {
			t.Fatalf("spans out of time order: %+v", ev.Spans)
		}
		if sp.DurNs < 0 {
			t.Fatalf("negative duration rendered: %+v", sp)
		}
		prevAt = sp.At
	}
	want := "a:enqueue a:apply a:ship b:follower-wal-append b:follower-fsync b:follower-ack a:follower-ack"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("span order\n got %s\nwant %s", got, want)
	}
	if ev.TotalNs != 800 {
		t.Fatalf("total %d, want 800", ev.TotalNs)
	}
	if m.SkewClamped != 0 {
		t.Fatalf("clean merge counted %d clamps", m.SkewClamped)
	}
	if len(m.Members) != 2 || m.Members[0].Member != "a" || m.Members[1].OffsetNs != 50 {
		t.Fatalf("members: %+v", m.Members)
	}
	if len(m.Stages) == 0 || m.Stages[0].Stage != "enqueue" {
		t.Fatalf("stages not rank-ordered: %+v", m.Stages)
	}
}

// TestMergeTracesSkewClamp: follower spans whose aligned timestamps
// fall outside the [ship, ack-receipt] causality window are pinned to
// the violated bound, flagged, and counted — never rendered before the
// ship that caused them.
func TestMergeTracesSkewClamp(t *testing.T) {
	primary := MemberTrace{Member: "a", Entries: mkEntries("a",
		TraceEntry{Seq: 5, Stage: "apply", At: 1000},
		TraceEntry{Seq: 5, Stage: "ship", At: 2000},
		TraceEntry{Seq: 5, Stage: "follower-ack", At: 5000},
	)}
	// No offset estimate (OffsetNs 0) and a follower clock far behind:
	// raw stamps land before the primary even shipped.
	follower := MemberTrace{Member: "b", Entries: mkEntries("b",
		TraceEntry{Seq: 5, Stage: "follower-wal-append", At: 100},
		TraceEntry{Seq: 5, Stage: "follower-ack", At: 9000}, // and one beyond the ack receipt
	)}
	m := MergeTraces("s", []MemberTrace{primary, follower})
	if m.SkewClamped != 2 {
		t.Fatalf("SkewClamped %d, want 2", m.SkewClamped)
	}
	ev := m.Events[0]
	for _, sp := range ev.Spans {
		if sp.Member != "b" {
			continue
		}
		if !sp.Clamped {
			t.Fatalf("follower span not flagged clamped: %+v", sp)
		}
		if sp.At < 2000 || sp.At > 5000 {
			t.Fatalf("clamped span outside causality window: %+v", sp)
		}
	}
	for _, sp := range ev.Spans {
		if sp.DurNs < 0 {
			t.Fatalf("negative duration survived the clamp: %+v", sp)
		}
	}
}

// TestMergeTracesOverlappingRings: the same (seq, member, stage) seen
// twice — a re-recorded ack, or two fetches of an overlapping ring —
// keeps its earliest timestamp instead of duplicating the span.
func TestMergeTracesOverlappingRings(t *testing.T) {
	a1 := MemberTrace{Member: "a", Entries: mkEntries("a",
		TraceEntry{Seq: 3, Stage: "apply", At: 500},
		TraceEntry{Seq: 3, Stage: "apply", At: 400}, // duplicate, earlier
	)}
	a2 := MemberTrace{Member: "a", Entries: mkEntries("a",
		TraceEntry{Seq: 3, Stage: "apply", At: 600}, // overlapping fetch, later
	)}
	m := MergeTraces("s", []MemberTrace{a1, a2})
	if len(m.Events) != 1 || len(m.Events[0].Spans) != 1 {
		t.Fatalf("duplicates not collapsed: %+v", m.Events)
	}
	if sp := m.Events[0].Spans[0]; sp.At != 400 {
		t.Fatalf("kept At %d, want earliest 400", sp.At)
	}
}

// TestMergeTracesDownMember: an owner-set member whose ring could not
// be fetched stays visible in the merge (Down, zero entries) instead of
// silently narrowing the timeline.
func TestMergeTracesDownMember(t *testing.T) {
	m := MergeTraces("s", []MemberTrace{
		{Member: "a", Entries: mkEntries("a", TraceEntry{Seq: 1, Stage: "apply", At: 10})},
		{Member: "b", Down: true},
	})
	if len(m.Members) != 2 {
		t.Fatalf("members: %+v", m.Members)
	}
	var down *TraceMemberInfo
	for i := range m.Members {
		if m.Members[i].Member == "b" {
			down = &m.Members[i]
		}
	}
	if down == nil || !down.Down || down.Entries != 0 {
		t.Fatalf("down member misreported: %+v", m.Members)
	}
	if len(m.Events) != 1 {
		t.Fatalf("live member's events lost: %+v", m.Events)
	}
}

// TestMergeTracesWraparoundMidMerge: one member's ring wrapped past the
// early seqs the other still retains — merged events cover the union,
// and seqs only one member retains still render as partial timelines.
func TestMergeTracesWraparoundMidMerge(t *testing.T) {
	small := NewTracer(4)
	big := NewTracer(64)
	for seq := int64(1); seq <= 10; seq++ {
		small.RecordAt(seq, StageApply, seq*100)
		big.RecordAt(seq, StageEnqueue, seq*100-50)
	}
	es := small.Entries(-1 << 63)
	for i := range es {
		es[i].Member = "a"
	}
	eb := big.Entries(-1 << 63)
	for i := range eb {
		eb[i].Member = "b"
	}
	m := MergeTraces("s", []MemberTrace{{Member: "a", Entries: es}, {Member: "b", Entries: eb}})
	if len(m.Events) != 10 {
		t.Fatalf("want the union of both rings (10 seqs), got %d", len(m.Events))
	}
	for _, ev := range m.Events {
		switch {
		case ev.Seq <= 6: // wrapped out of the small ring: enqueue only
			if len(ev.Spans) != 1 || ev.Spans[0].Stage != "enqueue" {
				t.Fatalf("seq %d should be partial (enqueue only): %+v", ev.Seq, ev.Spans)
			}
		default: // both rings retain it
			if len(ev.Spans) != 2 {
				t.Fatalf("seq %d should have both spans: %+v", ev.Seq, ev.Spans)
			}
		}
	}
}

// TestTraceHandlerSinceSeq: the debug endpoint's ?since_seq= filter
// narrows the dump, and a non-integer value is a 400.
func TestTraceHandlerSinceSeq(t *testing.T) {
	hub := NewTraceHub(16)
	hub.SetMember("m1")
	tr := hub.Tracer("s")
	for seq := int64(1); seq <= 5; seq++ {
		tr.RecordAt(seq, StageApply, seq)
	}
	get := func(query string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		hub.Handler("/debug/trace/").ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace/s"+query, nil))
		return rr
	}
	rr := get("?since_seq=4")
	entries, err := ParseTrace(rr.Body.Bytes())
	if err != nil {
		t.Fatalf("dump does not parse: %v\n%s", err, rr.Body.String())
	}
	if len(entries) != 2 || entries[0].Seq != 4 || entries[1].Seq != 5 {
		t.Fatalf("since_seq=4 returned %+v", entries)
	}
	for _, e := range entries {
		if e.Member != "m1" {
			t.Fatalf("entry lacks member identity: %+v", e)
		}
	}
	if rr := get("?since_seq=nope"); rr.Code != 400 {
		t.Fatalf("bad since_seq answered %d, want 400", rr.Code)
	}
}

// TestSlowRing: only events beyond the threshold are retained, the
// snapshot is slowest-first, the ring wraps, and the handler serves the
// dump shape cdmatop reads.
func TestSlowRing(t *testing.T) {
	r := NewSlowRing(3, 100)
	r.Note("s", 1, 99) // under threshold: dropped
	r.Note("s", 2, 150)
	r.Note("s", 3, 300)
	r.Note("s", 4, 200)
	if got := r.Snapshot(); len(got) != 3 || got[0].Seq != 3 || got[1].Seq != 4 || got[2].Seq != 2 {
		t.Fatalf("snapshot not slowest-first: %+v", got)
	}
	r.Note("s", 5, 500) // wraps: overwrites the oldest slot
	got := r.Snapshot()
	if len(got) != 3 || got[0].Seq != 5 {
		t.Fatalf("post-wrap snapshot: %+v", got)
	}
	for _, e := range got {
		if e.Seq == 2 {
			t.Fatalf("wrap kept the overwritten slot: %+v", got)
		}
	}

	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slowest", nil))
	var dump struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Events      []SlowEvent `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("handler body: %v\n%s", err, rr.Body.String())
	}
	if dump.ThresholdNs != 100 || len(dump.Events) != 3 {
		t.Fatalf("dump: %+v", dump)
	}

	// Nil ring: no-ops and an empty dump.
	var nr *SlowRing
	nr.Note("s", 1, 1<<60)
	if nr.Snapshot() != nil {
		t.Fatal("nil ring snapshot not empty")
	}
	rr = httptest.NewRecorder()
	nr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slowest", nil))
	if !strings.Contains(rr.Body.String(), `"events":[]`) {
		t.Fatalf("nil ring handler: %s", rr.Body.String())
	}
}

// FuzzTraceJSONRoundTrip: whatever a tracer records, WriteJSON emits
// parseable JSON and ParseTrace reads back exactly the entries Entries
// reports — the contract the fleet collector depends on.
func FuzzTraceJSONRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, "m1")
	f.Add([]byte{}, "")
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 9, 9, 9, 9, 9}, `we"ird\member`)
	f.Fuzz(func(t *testing.T, ops []byte, member string) {
		tr := newMemberTracer(8, member)
		seq := int64(0)
		for _, b := range ops {
			// Derive (seq delta, stage, at) from each fuzz byte; seq may go
			// negative and at may be huge — both must round-trip.
			seq += int64(int8(b))
			tr.RecordAt(seq, TraceStage(b%12), int64(b)<<52)
		}
		var sb strings.Builder
		if err := tr.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		got, err := ParseTrace([]byte(sb.String()))
		if err != nil {
			t.Fatalf("emitted JSON does not parse: %v\n%s", err, sb.String())
		}
		want := tr.Entries(-1 << 63)
		if len(got) != len(want) {
			t.Fatalf("round trip: %d entries, want %d", len(got), len(want))
		}
		// The JSON layer replaces each invalid UTF-8 byte in the member
		// with U+FFFD (encoding/json's contract; note: per byte, unlike
		// strings.ToValidUTF8); everything else is exact.
		var mb strings.Builder
		for _, r := range member {
			mb.WriteRune(r)
		}
		wantMember := mb.String()
		for i := range want {
			w := want[i]
			if w.Member != "" {
				w.Member = wantMember
			}
			if got[i] != w {
				t.Fatalf("entry %d: got %+v want %+v", i, got[i], w)
			}
		}
	})
}
