package experiments

import (
	"math"

	"repro/internal/adhoc"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// messageOverhead regenerates m1, an extension experiment (not in the
// paper, addressing its design goal 3: "minimize the overhead of
// recoding"): protocol messages exchanged per join event by the
// distributed Minim and CP protocols, as a function of network size N.
// Both protocols are local — the message count per event tracks
// neighborhood size (node density), not N, which is exactly what the
// figure demonstrates: on the paper's fixed 100x100 arena the curves grow
// linearly with N (density grows), while on an arena scaled to keep
// density constant they stay flat.
func messageOverhead(cfg Config, f figure) (Figure, error) {
	xs := []float64{20, 40, 60, 80, 100}
	variants := []struct {
		label  string
		scaled bool
		proto  string
	}{
		{"Minim", false, "minim"},
		{"CP", false, "cp"},
		{"Minim-constdensity", true, "minim"},
		{"CP-constdensity", true, "cp"},
	}
	cells, err := runPool(cfg, len(xs), func(xi int, seed uint64) ([]float64, error) {
		n := int(xs[xi])
		msgs := make([]float64, len(variants))
		for i, v := range variants {
			arena := 100.0
			if v.scaled {
				// Keep density equal to N=100 on 100x100.
				arena = 100.0 * math.Sqrt(float64(n)/100.0)
			}
			var err error
			if msgs[i], err = messagesPerJoin(seed, n, arena, v.proto); err != nil {
				return nil, err
			}
		}
		return msgs, nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.yLabel}
	for i, v := range variants {
		fig.Series = append(fig.Series, fold(v.label, xs, cells, func(msgs []float64) float64 { return msgs[i] }))
	}
	return fig, nil
}

// messagesPerJoin builds an N-node base network, then measures the
// messages one distributed join exchanges under the given protocol.
func messagesPerJoin(seed uint64, n int, arena float64, proto string) (float64, error) {
	rng := xrand.New(seed)
	sess, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim}, false)
	if err != nil {
		return 0, err
	}
	p := workload.Defaults()
	p.N = n
	p.ArenaW, p.ArenaH = arena, arena
	if err := sess.Apply(workload.JoinScript(seed, p)); err != nil {
		return 0, err
	}

	st, _ := sess.StrategyOf(sim.Minim)
	rt := dist.NewRuntime(rng.Uint64(), sess.Engine().Network(), st.Assignment())
	joiner := graph.NodeID(n + 1)
	cfg := adhoc.Config{
		Pos:   geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)},
		Range: rng.Uniform(p.MinR, p.MaxR),
	}
	if err := rt.StartJoin(joiner, cfg, proto); err != nil {
		return 0, err
	}
	if err := rt.Engine.Run(1_000_000); err != nil {
		return 0, err
	}
	return float64(rt.Engine.Delivered), nil
}
