package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/toca"
)

// figureRuns is the fixed experiments.Config.Runs of the figures
// workload: one network per plotted point.
const figureRuns = 1

// figurePasses is how many full passes a run makes: one per ten seconds
// of --seconds, at least one. A pass takes about 8 s on a 2-core Xeon.
func figurePasses(seconds float64) int { return max(1, int(seconds/10+0.5)) }

// runFigures regenerates all paper figures through experiments.ByID, in
// experiments.All order, with Workers = nproc. Each pass is a trial with
// its own seed.
func runFigures(ctx *runCtx) (*outcome, error) {
	cfg := experiments.Config{Runs: figureRuns, Seed: ctx.seed, Workers: runtime.NumCPU()}
	// Set-up: Fig 10a, five times, to let lazy initialisation and caches
	// settle before the timed passes.
	var warm []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := experiments.ByID("10a", cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm = append(warm, time.Since(t0).Seconds())
	}
	setupS := median(warm)

	var plain []trial
	for k := 0; k < figurePasses(ctx.seconds); k++ {
		cfg.Seed = subSeed(ctx.seed, k)
		t, err := figurePass(ctx, cfg, k)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", k, err)
		}
		t.setupS = setupS
		plain = append(plain, t)
	}
	if !ctx.traced {
		// One request is one regeneration of every figure, so a run's
		// latency samples are its passes.
		out := summarize(plain, nil)
		passMs := make([]float64, len(plain))
		for i, t := range plain {
			passMs[i] = t.p50Ms
		}
		out.metrics["latency_p90_ms"] = quantile(passMs, 0.9)
		return out, nil
	}

	// The traced run: per-figure times, the spans, and the strategies'
	// own layers at the figures' scale (a replay on the paper's 100-node
	// arena with all three strategies, differentially checked against the
	// engine session the experiments use).
	l := map[string]float64{}
	if err := figureReplay(ctx.seed, l); err != nil {
		return nil, err
	}
	for _, t := range plain {
		for k, v := range l {
			t.layers[k] = v
		}
	}
	out := summarize(plain, plain)
	out.metrics["obs.overhead_pct"] = 0 // experiments carry no program instrumentation
	self := ctx.spans.selfTimes("experiments.pass", time.Microsecond)
	out.metrics["attribution.gap_pct"] = 100 * median(self) / median(ctx.spans.durations("experiments.pass", time.Microsecond))
	return out, nil
}

// figurePass regenerates every figure once and checks it.
func figurePass(ctx *runCtx, cfg experiments.Config, k int) (trial, error) {
	t := trial{layers: map[string]float64{}}
	var figs []experiments.Figure
	cpu0, p0 := cpuTime(), time.Now()
	root := ctx.spans.add("experiments.pass", int64(k), 0, 0, -1)
	for _, id := range figureIDs {
		f0 := time.Now()
		fig, err := experiments.ByID(id, cfg)
		f1 := time.Now()
		t.attempted++
		if err != nil {
			return t, fmt.Errorf("figure %s: %w", id, err)
		}
		ctx.spans.add("experiments.figure."+id, int64(k), f0.UnixNano(), f1.UnixNano(), root)
		t.layers["experiments.fig_s."+id] = f1.Sub(f0).Seconds()
		figs = append(figs, fig)
	}
	wall, cpu := time.Since(p0), cpuTime()-cpu0
	ctx.spans.setTimes(root, p0.UnixNano(), p0.Add(wall).UnixNano())
	if err := checkFigures(figs); err != nil {
		return t, err
	}
	events := 0
	for _, f := range figs {
		events += figureEvents(f)
	}
	t.eps = float64(events) / wall.Seconds()
	t.cpuUsPerEvent = float64(cpu.Microseconds()) / float64(events)
	t.layers["experiments.worker_util"] = cpu.Seconds() / (wall.Seconds() * float64(cfg.Workers))
	t.p50Ms = float64(wall.Nanoseconds()) / 1e6
	t.extras = map[string]float64{"figures_s": wall.Seconds()}

	// Fig 10b plots total recodings after x joins, Fig 10a the max code.
	joins := 0.0
	for _, s := range figs[1].Series {
		for i, x := range s.X {
			t.recodings += int(math.Round(s.Y[i] * figureRuns))
			joins += x * figureRuns
		}
	}
	t.events = int(joins) / len(figs[1].Series)
	for _, s := range figs[0].Series {
		for _, y := range s.Y {
			t.code += y
		}
	}
	return t, nil
}

// figureReplay replays a 2000-event stream on the paper's 100-node arena
// through engine.Step and OnDelta for Minim, CP and BBB, requires the
// result to match sim.EngineSession (the experiments' path) and CA1/CA2,
// and fills the engine, adhoc, strategy and trace layers.
func figureReplay(seed uint64, l map[string]float64) error {
	p := genParams{N: 100, ArenaW: 100, ArenaH: 100, MinR: 20.5, MaxR: 30.5, MaxDisp: 40, RaiseFactor: 2}
	st := generate(seed, p, 2000)
	names := []string{"Minim", "CP", "BBB"}
	sh, err := replayShadow(names, st.Base, st.Events, l)
	if err != nil {
		return err
	}
	ref, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim, sim.CP, sim.BBB}, false)
	if err != nil {
		return err
	}
	if err := ref.Apply(concat(st.Base, st.Events)); err != nil {
		return err
	}
	got := map[string]toca.Assignment{}
	for _, name := range names {
		rs, _ := ref.StrategyOf(sim.StrategyName(name))
		got[name] = rs.Assignment()
		if vs := toca.Verify(sh.net.Graph(), got[name]); len(vs) > 0 {
			return fmt.Errorf("%s: %d CA1/CA2 violations after the replay", name, len(vs))
		}
	}
	if err := sh.matches(got); err != nil {
		return err
	}
	log, err := measureEncode(concat(st.Base, st.Events), l)
	if err != nil {
		return err
	}
	return measureDecode(log, l)
}

// checkFigures requires every figure with its series complete and every
// plotted value finite.
func checkFigures(figs []experiments.Figure) error {
	for i, f := range figs {
		if f.ID != figureIDs[i] || len(f.Series) < 2 {
			return fmt.Errorf("figure %d: got %q with %d series", i, f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Y) != len(s.X) || len(s.X) == 0 {
				return fmt.Errorf("figure %s: series %s has %d points for %d x values", f.ID, s.Label, len(s.Y), len(s.X))
			}
			for _, y := range s.Y {
				if math.IsNaN(y) || math.IsInf(y, 0) {
					return fmt.Errorf("figure %s: series %s plots %v", f.ID, s.Label, y)
				}
			}
		}
	}
	return nil
}

// figureEvents counts the events one figure simulates, from the paper's
// §5 scripts: Fig 10 joins N stations (N = x in 10a–c, 100 in 10d–f);
// Fig 11 joins 100 and raises half of them; Fig 12 joins 40 and moves
// each once per round (one round in 12a, x rounds in 12b–d).
func figureEvents(f experiments.Figure) int {
	total := 0
	for _, x := range f.Series[0].X {
		switch f.ID {
		case "10a", "10b", "10c":
			total += int(x)
		case "10d", "10e", "10f":
			total += 100
		case "11a", "11b", "11c":
			total += 100 + 50
		case "12a":
			total += 40 + 40
		default:
			total += 40 + 40*int(x)
		}
	}
	return total * figureRuns
}
