package core

import (
	"fmt"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/graph"
	"repro/internal/toca"
	"repro/internal/workload"
)

// weightedJoinRun replays a join workload through a Minim-style recoder
// whose matching uses the given old-color edge weight, and returns the
// total recodings and final max color.
func weightedJoinRun(n int, seed uint64, wOld int64) (recodings int, maxColor toca.Color) {
	p := workload.Defaults()
	p.N = n
	net := adhoc.New()
	assign := make(toca.Assignment)
	for _, ev := range workload.JoinScript(seed, p) {
		part := net.PartitionFor(ev.ID, ev.Cfg)
		if err := net.Join(ev.ID, ev.Cfg); err != nil {
			panic(err)
		}
		v1 := append(part.InOrBoth(), ev.ID)
		excl := make(map[graph.NodeID]struct{}, len(v1))
		for _, u := range v1 {
			excl[u] = struct{}{}
		}
		old := make(map[graph.NodeID]toca.Color, len(v1))
		forb := make(map[graph.NodeID]toca.ColorSet, len(v1))
		for _, u := range v1 {
			old[u] = assign[u]
			forb[u] = toca.Forbidden(net.Graph(), assign, u, excl)
		}
		for u, c := range solveWeighted(nil, v1, old, forb, wOld, 1) {
			if assign[u] != c {
				recodings++
			}
			assign[u] = c
		}
	}
	if !toca.Valid(net.Graph(), assign) {
		panic("ablation run produced invalid assignment")
	}
	return recodings, assign.MaxColor()
}

// BenchmarkAblationWeights contrasts old-color edge weights 3 (the
// paper's, provably minimal), 2 (ties with two unit edges), and 1 (pure
// cardinality). The recodings metric shows why wOld > 2*wNew matters.
func BenchmarkAblationWeights(b *testing.B) {
	for _, wOld := range []int64{3, 2, 1} {
		b.Run(fmt.Sprintf("wOld=%d", wOld), func(b *testing.B) {
			var rec int
			var mc toca.Color
			for i := 0; i < b.N; i++ {
				rec, mc = weightedJoinRun(80, uint64(11+i), wOld)
			}
			b.ReportMetric(float64(rec), "recodings")
			b.ReportMetric(float64(mc), "max_color")
		})
	}
}
