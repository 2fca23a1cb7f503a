package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
)

// A run is a fixed number of independent trials, each with inputs
// generated from its own sub-seed, its own starting state, and its own
// measurements. Reporting the median across trials keeps one slow
// network or one noisy second from moving a run's figures.
type trial struct {
	setupS, p50Ms, p90Ms float64
	eps, cpuUsPerEvent   float64
	recodings, events    int     // measured events and their recodings, all hosted strategies
	code                 float64 // sum of the hosted strategies' final max codes
	attempted, failed    int64
	extras               map[string]float64 // workload-specific end-to-end figures
	layers               map[string]float64 // traced trials only
}

// subSeed derives trial k's input seed from the run's seed.
func subSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

// runTrials runs n trials on inputs gen(k). A traced run follows every
// untraced trial with an instrumented one on the same inputs, so the two
// see the same machine state when obs.overhead_pct compares them.
func runTrials(ctx *runCtx, n int, gen func(k int) stream, run func(k int, st stream, dir string, instrumented bool) (trial, error)) (plain, traced []trial, err error) {
	for k := 0; k < n; k++ {
		st := gen(k)
		for _, instrumented := range []bool{false, true} {
			if instrumented && !ctx.traced {
				break
			}
			t, err := run(k, st, filepath.Join(ctx.dir, fmt.Sprintf("trial%d-%v", k, instrumented)), instrumented)
			if err != nil {
				return nil, nil, fmt.Errorf("trial %d: %w", k, err)
			}
			if instrumented {
				traced = append(traced, t)
			} else {
				plain = append(plain, t)
			}
		}
	}
	return plain, traced, nil
}

// replayTrials is how many of a traced run's trials replay their event
// log through engine.Step and OnDelta (the bit-identity check and the
// engine and strategy layers); the replay costs as much as the trial.
const replayTrials = 2

// extraLayer maps a workload-specific end-to-end figure, measured with
// instrumentation off, to the per-layer metric that reports it.
var extraLayer = map[string]string{
	"read_p50_us":         "serve.read_p50_us",
	"watch_p50_ms":        "serve.watch_p50_ms",
	"recover_s":           "serve.recover_s",
	"follower_ack_p50_ms": "cluster.follower_ack_p50_ms",
	"follower_ack_p99_ms": "cluster.follower_ack_p99_ms",
	"figures_s":           "experiments.figures_s",
	"late_p99_ms":         "client.late_p99_ms",
}

// summarize turns a run's trials into its outcome: end-to-end metrics
// from the untraced trials, or, when traced ones exist, per-layer
// metrics (medians across traced trials) plus the untraced figures that
// the per-layer set carries.
func summarize(plain, traced []trial) *outcome {
	out := &outcome{metrics: map[string]float64{}}
	recodings, events := 0, 0
	for _, t := range plain {
		out.attempted += t.attempted
		out.failed += t.failed
		recodings += t.recodings
		events += t.events
	}
	field := func(ts []trial, f func(trial) float64) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t)
		}
		return median(xs)
	}
	extras := mergeMedian(plain, func(t trial) map[string]float64 { return t.extras })
	extras["error_rate"] = float64(out.failed) / float64(out.attempted)
	if traced == nil {
		out.metrics = map[string]float64{
			"setup_s":             field(plain, func(t trial) float64 { return t.setupS }),
			"latency_p50_ms":      field(plain, func(t trial) float64 { return t.p50Ms }),
			"latency_p90_ms":      field(plain, func(t trial) float64 { return t.p90Ms }),
			"events_per_s":        field(plain, func(t trial) float64 { return t.eps }),
			"cpu_us_per_event":    field(plain, func(t trial) float64 { return t.cpuUsPerEvent }),
			"rss_mb":              peakRSSMB(),
			"recodings_per_event": float64(recodings) / float64(events),
			"max_code":            field(plain, func(t trial) float64 { return t.code }),
		}
		for _, k := range sortedKeys(extras) {
			fmt.Printf("  %-34s %14.4f\n", k, extras[k])
		}
		return out
	}
	out.metrics = mergeMedian(traced, func(t trial) map[string]float64 { return t.layers })
	for k, v := range extras {
		if name, ok := extraLayer[k]; ok {
			out.metrics[name] = v
		}
	}
	out.metrics["client.error_rate"] = extras["error_rate"]
	cpu := func(t trial) float64 { return t.cpuUsPerEvent }
	out.metrics["obs.overhead_pct"] = 100 * (field(traced, cpu) - field(plain, cpu)) / field(plain, cpu)
	return out
}

// mergeMedian takes, for every key any trial reports, the median of the
// values the trials report for it.
func mergeMedian(ts []trial, get func(trial) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, t := range ts {
		for k, v := range get(t) {
			if !math.IsNaN(v) {
				vals[k] = append(vals[k], v)
			}
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
