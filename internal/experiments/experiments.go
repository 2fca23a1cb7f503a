// Package experiments regenerates every figure of the paper's section 5
// evaluation: Fig 10(a-f) for node joins, Fig 11(a-c) for power-range
// increases, and Fig 12(a-d) for node movement. Every point is the mean
// over cfg.Runs randomly generated networks, exactly as in the paper
// ("all points on all plots are the average of the metric measured over
// 100 runs").
//
// The thirteen figures are projections of five distinct simulations, the
// sections: join vs N, join vs average range, raise factor, move vs
// maxdisp and move vs RoundNo. A figure is one row of the figures table:
// its section, the metric it extracts from each run and the strategies
// it plots. ByID simulates one figure's section with only that figure's
// strategies; All simulates each section once and projects every figure
// from it.
//
// Runs are independent and fan out across a bounded worker pool sized to
// the machine. Each point is folded in run order, so a figure does not
// depend on the worker count.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config controls an experiment sweep.
type Config struct {
	Runs     int    // networks per plotted point (paper: 100)
	Seed     uint64 // master seed; run i of point j derives its own stream
	Workers  int    // parallel runs; 0 means GOMAXPROCS
	Validate bool   // re-verify CA1/CA2 after every event (slow)
}

// DefaultConfig returns the paper's run count with a fixed master seed.
func DefaultConfig() Config {
	return Config{Runs: 100, Seed: 20010113}
}

// workers resolves the worker-pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Series is one plotted line: a strategy's metric across the x sweep.
type Series struct {
	Label string
	X     []float64
	Y     []float64 // mean over runs
	Err   []float64 // 95% CI half-width over runs
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// runPool calls job once per (x index, run) on cfg.workers() goroutines
// and returns the results indexed [x][run]. Run r of point xi gets the
// (xi*cfg.Runs + r)-th value of the master stream, so the results do not
// depend on the worker count. The first error in (x, run) order wins.
func runPool[T any](cfg Config, nx int, job func(xi int, seed uint64) (T, error)) ([][]T, error) {
	if cfg.Runs < 1 {
		return nil, fmt.Errorf("experiments: Runs = %d, want at least 1", cfg.Runs)
	}
	n := nx * cfg.Runs
	master := xrand.New(cfg.Seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	vals := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				vals[i], errs[i] = job(i/cfg.Runs, seeds[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cells := make([][]T, nx)
	for xi := range cells {
		cells[xi] = vals[xi*cfg.Runs : (xi+1)*cfg.Runs]
	}
	return cells, nil
}

// fold is the series of value over cells, each point summarized in run
// order.
func fold[T any](label string, xs []float64, cells [][]T, value func(T) float64) Series {
	s := Series{Label: label, X: append([]float64(nil), xs...)}
	for _, runs := range cells {
		var acc stats.Accumulator
		for _, c := range runs {
			acc.Add(value(c))
		}
		sum := acc.Summary()
		s.Y = append(s.Y, sum.Mean)
		s.Err = append(s.Err, sum.CI95())
	}
	return s
}

// section is one distinct section 5 simulation: an x axis, the event
// scripts of one run at x, and the union of the strategies its figures
// plot.
type section struct {
	xs         []float64
	scripts    func(x float64, seed uint64) (base, phase []strategy.Event)
	strategies []sim.StrategyName
}

// distributed is the paper's Minim and CP without the centralized BBB.
var distributed = []sim.StrategyName{sim.Minim, sim.CP}

// The five section 5 simulations.
var (
	joinVsN = &section{
		xs:         []float64{40, 50, 60, 70, 80, 90, 100, 110, 120},
		scripts:    joinScriptsForN,
		strategies: sim.AllStrategies,
	}
	// Average range (minr+maxr)/2 with maxr-minr = 5.
	joinVsAvgR = &section{
		xs:         []float64{5, 15, 25, 35, 45, 55, 65},
		scripts:    joinScriptsForAvgR,
		strategies: sim.AllStrategies,
	}
	raiseFactor = &section{
		xs:         []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6},
		scripts:    raiseScripts,
		strategies: sim.AllStrategies,
	}
	moveVsDisp = &section{
		xs:         []float64{0, 10, 20, 30, 40, 50, 60, 70, 80},
		scripts:    moveScriptsByDisp,
		strategies: distributed,
	}
	moveVsRounds = &section{
		xs:         []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		scripts:    moveScriptsByRounds,
		strategies: sim.AllStrategies,
	}
)

// simulate runs every point of s for the named strategies: cells[x][run]
// holds one result per strategy, in the order of names.
func (s *section) simulate(cfg Config, names []sim.StrategyName) ([][][]sim.PhaseResult, error) {
	return runPool(cfg, len(s.xs), func(xi int, seed uint64) ([]sim.PhaseResult, error) {
		base, phase := s.scripts(s.xs[xi], seed)
		return sim.RunPhases(names, base, phase, cfg.Validate)
	})
}

func joinScriptsForN(x float64, seed uint64) ([]strategy.Event, []strategy.Event) {
	p := workload.Defaults()
	p.N = int(x)
	return workload.JoinScript(seed, p), nil
}

func joinScriptsForAvgR(x float64, seed uint64) ([]strategy.Event, []strategy.Event) {
	p := workload.Defaults()
	p.N = 100
	p.MinR = x - 2.5
	p.MaxR = x + 2.5
	if p.MinR < 0 {
		p.MinR = 0
	}
	return workload.JoinScript(seed, p), nil
}

func raiseScripts(x float64, seed uint64) ([]strategy.Event, []strategy.Event) {
	p := workload.Defaults() // N=100, ranges (20.5, 30.5), as in the paper
	p.RaiseFactor = x
	return workload.JoinScript(seed, p), workload.PowerRaiseScript(seed, p)
}

// moveParams is the paper's section 5.3 base: N=40, ranges (20.5, 30.5).
func moveParams() workload.Params {
	p := workload.Defaults()
	p.N = 40
	return p
}

func moveScriptsByDisp(x float64, seed uint64) ([]strategy.Event, []strategy.Event) {
	p := moveParams()
	p.MaxDisp = x
	p.RoundNo = 1
	return workload.JoinScript(seed, p), workload.MoveScript(seed, p)
}

func moveScriptsByRounds(x float64, seed uint64) ([]strategy.Event, []strategy.Event) {
	p := moveParams()
	p.MaxDisp = 40
	p.RoundNo = int(x)
	return workload.JoinScript(seed, p), workload.MoveScript(seed, p)
}

func extractMaxColor(r sim.PhaseResult) float64       { return float64(r.Final.MaxColor) }
func extractRecodings(r sim.PhaseResult) float64      { return float64(r.Final.TotalRecodings) }
func extractDeltaMaxColor(r sim.PhaseResult) float64  { return float64(r.DeltaMaxColor()) }
func extractDeltaRecodings(r sim.PhaseResult) float64 { return float64(r.DeltaRecodings()) }

// figure is one row of the figures table. A nil section marks the
// message-overhead extension m1, which is not a section 5 simulation.
type figure struct {
	id, title, xLabel, yLabel string
	section                   *section
	metric                    func(sim.PhaseResult) float64
	strategies                []sim.StrategyName
}

// figures lists every regenerable figure in paper order: the paper's
// thirteen plus m1.
var figures = []figure{
	{"10a", "Node join: total colors vs N", "Number of Stations N", "Max Color Index Assigned",
		joinVsN, extractMaxColor, sim.AllStrategies},
	{"10b", "Node join: recodings vs N", "Number of Stations N", "Total Number of Recodings",
		joinVsN, extractRecodings, sim.AllStrategies},
	{"10c", "Node join: recodings vs N (distributed only)", "Number of Stations N", "Total Number of Recodings",
		joinVsN, extractRecodings, distributed},
	{"10d", "Node join: total colors vs average range", "Avg R", "Max Color Index Assigned",
		joinVsAvgR, extractMaxColor, sim.AllStrategies},
	{"10e", "Node join: recodings vs average range", "Avg R", "Total Number of Recodings",
		joinVsAvgR, extractRecodings, sim.AllStrategies},
	{"10f", "Node join: recodings vs average range (distributed only)", "Avg R", "Total Number of Recodings",
		joinVsAvgR, extractRecodings, distributed},
	{"11a", "Power increase: Δ(max color) vs raisefactor", "raisefactor", "Delta(Max Color Index Assigned)",
		raiseFactor, extractDeltaMaxColor, sim.AllStrategies},
	{"11b", "Power increase: Δ(recodings) vs raisefactor", "raisefactor", "Delta(Total Number of Recodings)",
		raiseFactor, extractDeltaRecodings, sim.AllStrategies},
	{"11c", "Power increase: Δ(recodings) vs raisefactor (distributed only)", "raisefactor", "Delta(Total Number of Recodings)",
		raiseFactor, extractDeltaRecodings, distributed},
	{"12a", "Movement: Δ(recodings) vs maxdisp", "maxdisp", "Delta(Total Number of Recodings)",
		moveVsDisp, extractDeltaRecodings, distributed},
	{"12b", "Movement: Δ(max color) vs RoundNo", "RoundNo", "Delta(Max Color Index Assigned)",
		moveVsRounds, extractDeltaMaxColor, sim.AllStrategies},
	{"12c", "Movement: Δ(recodings) vs RoundNo", "RoundNo", "Delta(Total Number of Recodings)",
		moveVsRounds, extractDeltaRecodings, sim.AllStrategies},
	{"12d", "Movement: Δ(recodings) vs RoundNo (distributed only)", "RoundNo", "Delta(Total Number of Recodings)",
		moveVsRounds, extractDeltaRecodings, distributed},
	{"m1", "Extension: protocol messages per join vs N", "Number of Stations N", "Messages per join event",
		nil, nil, nil},
}

// project extracts f from cells, a simulation of f's section for names.
func (f figure) project(names []sim.StrategyName, cells [][][]sim.PhaseResult) Figure {
	fig := Figure{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.yLabel}
	for _, name := range f.strategies {
		k := slices.Index(names, name)
		fig.Series = append(fig.Series, fold(string(name), f.section.xs, cells,
			func(rs []sim.PhaseResult) float64 { return f.metric(rs[k]) }))
	}
	return fig
}

// All regenerates every figure in IDs order, simulating each section
// once for the union of its figures' strategies.
func All(cfg Config) ([]Figure, error) {
	sims := make(map[*section][][][]sim.PhaseResult)
	figs := make([]Figure, 0, len(figures))
	for _, f := range figures {
		if f.section == nil {
			fig, err := messageOverhead(cfg, f)
			if err != nil {
				return nil, err
			}
			figs = append(figs, fig)
			continue
		}
		cells, ok := sims[f.section]
		if !ok {
			var err error
			if cells, err = f.section.simulate(cfg, f.section.strategies); err != nil {
				return nil, err
			}
			sims[f.section] = cells
		}
		figs = append(figs, f.project(f.section.strategies, cells))
	}
	return figs, nil
}

// ByID regenerates a single figure by its paper ID (e.g. "10a"),
// simulating only the strategies it plots.
func ByID(id string, cfg Config) (Figure, error) {
	i := slices.IndexFunc(figures, func(f figure) bool { return f.id == id })
	if i < 0 {
		return Figure{}, fmt.Errorf("experiments: unknown figure %q", id)
	}
	f := figures[i]
	if f.section == nil {
		return messageOverhead(cfg, f)
	}
	cells, err := f.section.simulate(cfg, f.strategies)
	if err != nil {
		return Figure{}, err
	}
	return f.project(f.strategies, cells), nil
}

// IDs lists every regenerable figure: the paper's thirteen plus the
// message-overhead extension m1.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}
