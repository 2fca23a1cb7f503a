package workload

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/strategy"
)

func hotCorner() Density {
	return Density{
		Base:  0.05,
		Spots: []HotSpot{{Center: geom.Point{X: 20, Y: 20}, Sigma: 10, Weight: 1}},
	}
}

func TestIPPPJoinScriptDeterministic(t *testing.T) {
	p := Defaults()
	a := IPPPJoinScript(42, p, hotCorner())
	b := IPPPJoinScript(42, p, hotCorner())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different scripts")
	}
	c := IPPPJoinScript(43, p, hotCorner())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scripts")
	}
	if len(a) != p.N {
		t.Fatalf("got %d events, want %d", len(a), p.N)
	}
	for i, ev := range a {
		if ev.Kind != strategy.Join || int(ev.ID) != i {
			t.Fatalf("event %d: kind %v id %d", i, ev.Kind, ev.ID)
		}
		if ev.Cfg.Pos.X < 0 || ev.Cfg.Pos.X > p.ArenaW || ev.Cfg.Pos.Y < 0 || ev.Cfg.Pos.Y > p.ArenaH {
			t.Fatalf("event %d: position %v outside arena", i, ev.Cfg.Pos)
		}
		if ev.Cfg.Range < p.MinR || ev.Cfg.Range > p.MaxR {
			t.Fatalf("event %d: range %g outside (%g, %g)", i, ev.Cfg.Range, p.MinR, p.MaxR)
		}
	}
}

// TestIPPPConcentration: with a single strong hot spot, far more mass
// lands near the spot than the uniform generator puts there.
func TestIPPPConcentration(t *testing.T) {
	p := Defaults()
	p.N = 400
	d := hotCorner()
	near := func(events []strategy.Event) int {
		n := 0
		for _, ev := range events {
			if ev.Cfg.Pos.DistanceSqTo(geom.Point{X: 20, Y: 20}) <= 25*25 {
				n++
			}
		}
		return n
	}
	hot := near(IPPPJoinScript(7, p, d))
	uni := near(JoinScript(7, p))
	if hot <= 2*uni {
		t.Fatalf("hot-spot mass %d not concentrated vs uniform %d", hot, uni)
	}
}

// TestIPPPDegenerateDensity: a zero density falls back to uniform
// sampling instead of spinning forever.
func TestIPPPDegenerateDensity(t *testing.T) {
	p := Defaults()
	p.N = 10
	events := IPPPJoinScript(3, p, Density{})
	if len(events) != 10 {
		t.Fatalf("got %d events", len(events))
	}
}

func TestGridSpots(t *testing.T) {
	spots := GridSpots(2, 2, 100, 100, 10, 1)
	if len(spots) != 4 {
		t.Fatalf("got %d spots", len(spots))
	}
	want := []geom.Point{{X: 25, Y: 25}, {X: 25, Y: 75}, {X: 75, Y: 25}, {X: 75, Y: 75}}
	for _, w := range want {
		found := false
		for _, s := range spots {
			if s.Center == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing spot at %v", w)
		}
	}
}
