package bbb

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func mustJoin(t *testing.T, s *host, id graph.NodeID, x, y, rng float64) strategy.Outcome {
	t.Helper()
	out, err := s.Join(id, adhoc.Config{Pos: geom.Point{X: x, Y: y}, Range: rng})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkValid(t *testing.T, s *host) {
	t.Helper()
	if vs := toca.Verify(s.Network().Graph(), s.Assignment()); len(vs) > 0 {
		t.Fatalf("assignment invalid: %v", vs)
	}
}

func TestName(t *testing.T) {
	if New(adhoc.New(), nil).Name() != "BBB" {
		t.Fatal("name")
	}
}

func TestJoinSequenceValid(t *testing.T) {
	rng := xrand.New(111)
	s := newHost()
	for i := 0; i < 40; i++ {
		mustJoin(t, s, graph.NodeID(i),
			rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(20.5, 30.5))
		checkValid(t, s)
	}
	// Every node must be colored.
	for _, id := range s.Network().Nodes() {
		if s.Assignment()[id] == toca.None {
			t.Fatalf("node %d uncolored", id)
		}
	}
}

func TestAllEventKindsValid(t *testing.T) {
	s := newHost()
	mustJoin(t, s, 1, 10, 10, 25)
	mustJoin(t, s, 2, 20, 10, 25)
	mustJoin(t, s, 3, 15, 18, 25)
	if _, err := s.Move(3, geom.Point{X: 60, Y: 60}); err != nil {
		t.Fatal(err)
	}
	checkValid(t, s)
	if _, err := s.SetRange(1, 80); err != nil {
		t.Fatal(err)
	}
	checkValid(t, s)
	if _, err := s.Leave(2); err != nil {
		t.Fatal(err)
	}
	checkValid(t, s)
	if _, ok := s.Assignment()[2]; ok {
		t.Fatal("departed node still assigned")
	}
	if _, err := s.Apply(strategy.Event{Kind: 99}); err == nil {
		t.Fatal("unknown kind")
	}
	if _, err := s.Leave(42); err == nil {
		t.Fatal("leave absent")
	}
}

// TestGlobalRecoloringRecodesMany: BBB's defining behaviour — the whole
// network is recolored at every event, so its cumulative recoding count
// dwarfs Minim's on the same join workload (paper Fig 10(b)).
func TestGlobalRecoloringRecodesMany(t *testing.T) {
	rng := xrand.New(222)
	type jn struct {
		id      graph.NodeID
		x, y, r float64
	}
	var joins []jn
	for i := 0; i < 60; i++ {
		joins = append(joins, jn{graph.NodeID(i),
			rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(20.5, 30.5)})
	}
	bbbTotal, minimTotal := 0, 0
	s := newHost()
	minim := engine.New()
	minim.Subscribe(core.New(minim.Network(), nil))
	var bbbMax, minimMax toca.Color
	for _, j := range joins {
		cfg := adhoc.Config{Pos: geom.Point{X: j.x, Y: j.y}, Range: j.r}
		out, err := s.Join(j.id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bbbTotal += out.Recodings()
		bbbMax = out.MaxColor
		mouts, err := minim.Apply(strategy.JoinEvent(j.id, cfg))
		if err != nil {
			t.Fatal(err)
		}
		minimTotal += mouts[0].Recodings()
		minimMax = mouts[0].MaxColor
	}
	if bbbTotal <= minimTotal {
		t.Fatalf("BBB total recodings %d <= Minim %d — global recoloring should dominate",
			bbbTotal, minimTotal)
	}
	// BBB's max color should be no worse than Minim's (it is the
	// near-optimal envelope in the paper's plots).
	if bbbMax > minimMax {
		t.Fatalf("BBB max color %d > Minim %d", bbbMax, minimMax)
	}
}

// TestRecodedSetMatchesDiff: the outcome's recoded set is exactly the
// assignment delta.
func TestRecodedSetMatchesDiff(t *testing.T) {
	rng := xrand.New(333)
	s := newHost()
	prev := s.Assignment().Clone()
	for i := 0; i < 25; i++ {
		out := mustJoin(t, s, graph.NodeID(i),
			rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(20.5, 30.5))
		if got, want := out.Recodings(), toca.DiffCount(prev, s.Assignment()); got != want {
			t.Fatalf("join %d: outcome %d recodings, diff %d", i, got, want)
		}
		prev = s.Assignment().Clone()
	}
}

func TestMixedEventStreamValid(t *testing.T) {
	rng := xrand.New(444)
	s := newHost()
	next := 0
	var present []graph.NodeID
	for step := 0; step < 200; step++ {
		var ev strategy.Event
		switch k := rng.Intn(10); {
		case k < 4 || len(present) == 0:
			ev = strategy.JoinEvent(graph.NodeID(next), adhoc.Config{
				Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
				Range: rng.Uniform(20.5, 30.5),
			})
			present = append(present, graph.NodeID(next))
			next++
		case k < 6:
			ev = strategy.MoveEvent(present[rng.Intn(len(present))],
				geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)})
		case k < 8:
			id := present[rng.Intn(len(present))]
			cfg, _ := s.Network().Config(id)
			ev = strategy.PowerEvent(id, cfg.Range*rng.Uniform(0.5, 2.5))
		default:
			i := rng.Intn(len(present))
			ev = strategy.LeaveEvent(present[i])
			present = append(present[:i], present[i+1:]...)
		}
		if _, err := s.Apply(ev); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkValid(t, s)
	}
}

// BenchmarkAblationBBBColorer (ablation A6): BBB's centralized heuristic,
// DSATUR against RLF, on the paper's join workload.
func BenchmarkAblationBBBColorer(b *testing.B) {
	p := workload.Defaults()
	p.N = 60
	for _, variant := range []struct {
		name string
		c    func(coloring.Graph) toca.Assignment
	}{
		{"DSATUR", coloring.DSATUR},
		{"RLF", coloring.RLF},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var maxColor toca.Color
			for i := 0; i < b.N; i++ {
				s := newHost()
				s.colorer = variant.c
				if err := s.eng.ApplyAll(workload.JoinScript(uint64(41+i), p)); err != nil {
					b.Fatal(err)
				}
				maxColor = s.Assignment().MaxColor()
			}
			b.ReportMetric(float64(maxColor), "max_color")
		})
	}
}
