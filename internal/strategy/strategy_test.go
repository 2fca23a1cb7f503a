package strategy

import (
	"strings"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/toca"
)

func TestEventConstructors(t *testing.T) {
	cfg := adhoc.Config{Pos: geom.Point{X: 1, Y: 2}, Range: 3}
	ev := JoinEvent(7, cfg)
	if ev.Kind != Join || ev.ID != 7 || ev.Cfg != cfg {
		t.Fatalf("JoinEvent = %+v", ev)
	}
	ev = LeaveEvent(7)
	if ev.Kind != Leave || ev.ID != 7 {
		t.Fatalf("LeaveEvent = %+v", ev)
	}
	ev = MoveEvent(7, geom.Point{X: 4, Y: 5})
	if ev.Kind != Move || ev.Pos != (geom.Point{X: 4, Y: 5}) {
		t.Fatalf("MoveEvent = %+v", ev)
	}
	ev = PowerEvent(7, 9.5)
	if ev.Kind != PowerChange || ev.R != 9.5 {
		t.Fatalf("PowerEvent = %+v", ev)
	}
}

func TestEventKindStrings(t *testing.T) {
	cases := map[EventKind]string{
		Join: "join", Leave: "leave", Move: "move", PowerChange: "power",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(EventKind(42).String(), "42") {
		t.Fatal("unknown kind string")
	}
}

func TestOutcomeRecodings(t *testing.T) {
	o := Outcome{Recoded: map[graph.NodeID]toca.Color{1: 2, 3: 4}}
	if o.Recodings() != 2 {
		t.Fatalf("Recodings = %d", o.Recodings())
	}
	if (Outcome{}).Recodings() != 0 {
		t.Fatal("empty outcome")
	}
}

func TestMetricsRecord(t *testing.T) {
	m := NewMetrics()
	m.Record(Join, Outcome{Recoded: map[graph.NodeID]toca.Color{1: 1}, MaxColor: 3})
	m.Record(Move, Outcome{Recoded: map[graph.NodeID]toca.Color{1: 2, 2: 3}, MaxColor: 2})
	if m.Events != 2 || m.TotalRecodings != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.MaxColor != 2 || m.PeakMaxColor != 3 {
		t.Fatalf("colors = %d peak %d", m.MaxColor, m.PeakMaxColor)
	}
	if m.RecodingsByKind[Join] != 1 || m.RecodingsByKind[Move] != 2 {
		t.Fatalf("by kind = %v", m.RecodingsByKind)
	}
}
