// Command benchjson runs the observability-overhead benchmarks and
// writes BENCH_obs.json: the serve apply and replication ship paths
// with and without the internal/obs instrumentation attached,
// alternating noise-floor-of-5 so the overhead ratio survives GC and
// machine noise, plus the trace record and merge costs.
//
// -gate-obs-overhead P fails the run (exit 1) if either instrumented
// path costs more than P percent over its uninstrumented twin — the
// CI teeth behind the "observability is ~free" contract. Instrumented
// variants must also stay allocation-free.
//
// Usage: benchjson [-out dir] [-benchtime 1s] [-gate-obs-overhead 3]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/benchjson"
)

// result is one benchmark's serialized outcome.
type result struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	AllocBytesPerOp int64   `json:"alloc_bytes_per_op"`
}

type artifact struct {
	Schema     int      `json:"schema"`
	Tool       string   `json:"tool"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []result `json:"benchmarks"`
	// Derived holds the headline comparisons computed from Benchmarks.
	Derived map[string]float64 `json:"derived,omitempty"`
}

func run(name string, f func(*testing.B)) result {
	fmt.Fprintf(os.Stderr, "benchjson: running %s...\n", name)
	r := testing.Benchmark(f)
	res := result{
		Name:            name,
		Iterations:      r.N,
		NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:     r.AllocsPerOp(),
		AllocBytesPerOp: r.AllocedBytesPerOp(),
	}
	fmt.Fprintf(os.Stderr, "benchjson:   %.0f ns/op, %d allocs/op (%d iterations)\n",
		res.NsPerOp, res.AllocsPerOp, res.Iterations)
	return res
}

// obsRounds is how many times each obs bench runs; paired benches keep
// the per-name noise floor (see runPair), lone benches the median, so
// one scheduler hiccup cannot fake (or mask) an overhead regression at
// the gate's 3% resolution.
const obsRounds = 5

// runMedian benchmarks f obsRounds times and returns the result whose
// ns/op is the median of the rounds.
func runMedian(name string, f func(*testing.B)) result {
	rs := make([]result, obsRounds)
	for i := range rs {
		rs[i] = run(fmt.Sprintf("%s[%d/%d]", name, i+1, obsRounds), f)
		rs[i].Name = name
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
	return rs[len(rs)/2]
}

// runPair benchmarks a (baseline, instrumented) pair with the two
// halves ALTERNATING round by round, then compares the two NOISE
// FLOORS: the fastest round of each half. The apply path allocates
// (view snapshots), so any round a GC cycle lands in reads several
// percent slow — but that noise is strictly additive, it can only
// inflate a round, never deflate one. The minimum across rounds is
// therefore the clean measurement of each half, and a real
// instrumentation regression raises every round — the floor included —
// so the gate still catches it. Returns the floor result of each half
// plus the floor-vs-floor overhead percentage and ns delta.
func runPair(baseName string, base func(*testing.B), instrName string, instr func(*testing.B)) (result, result, float64, float64) {
	bs := make([]result, obsRounds)
	is := make([]result, obsRounds)
	for i := 0; i < obsRounds; i++ {
		bs[i] = run(fmt.Sprintf("%s[%d/%d]", baseName, i+1, obsRounds), base)
		bs[i].Name = baseName
		is[i] = run(fmt.Sprintf("%s[%d/%d]", instrName, i+1, obsRounds), instr)
		is[i].Name = instrName
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].NsPerOp < bs[j].NsPerOp })
	sort.Slice(is, func(i, j int) bool { return is[i].NsPerOp < is[j].NsPerOp })
	b0, i0 := bs[0], is[0]
	return b0, i0, overheadPct(b0.NsPerOp, i0.NsPerOp), i0.NsPerOp - b0.NsPerOp
}

func nsOf(results []result, name string) float64 {
	for _, r := range results {
		if r.Name == name {
			return r.NsPerOp
		}
	}
	return 0
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func writeArtifact(path string, a artifact) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	testing.Init() // registers test.benchtime, which testing.Benchmark honors
	out := flag.String("out", ".", "directory to write BENCH_obs.json into")
	benchtime := flag.Duration("benchtime", time.Second, "minimum run time per benchmark")
	gateObs := flag.Float64("gate-obs-overhead", 0, "fail if instrumented apply/ship exceed their baselines by more than this percent (0 disables)")
	flag.Parse()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// Each obs pair runs its two halves alternating round by round and
	// compares noise floors (fastest of 5), so the overhead ratios
	// survive GC landings and machine drift across the suite.
	applyBase, applyInstr, applyOverhead, _ := runPair(
		"ApplyUninstrumented", benchjson.ApplyUninstrumented,
		"ApplyInstrumented", benchjson.ApplyInstrumented)
	shipBase, shipInstr, _, shipDelta := runPair(
		"ShipAssembleBase", benchjson.ShipAssembleBase,
		"ShipAssembleObs", benchjson.ShipAssembleObs)
	shipRound := runMedian("ShipRoundHTTP", benchjson.ShipRoundHTTP)
	traceRecord := runMedian("TraceRecord", benchjson.TraceRecord)
	traceMerge := runMedian("TraceMerge", benchjson.TraceMerge)
	ob := artifact{
		Schema:     1,
		Tool:       "cmd/benchjson",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: []result{applyBase, applyInstr, shipBase, shipInstr, shipRound, traceRecord, traceMerge},
	}
	// The ship instrumentation's cost is the delta of the I/O-free
	// assembly pair (tight enough for a 3% gate); it is stated as a
	// fraction of what a full loopback ship round costs, because that
	// is the unit of work the budget protects.
	shipObsNs := shipDelta
	if shipObsNs < 0 {
		shipObsNs = 0
	}
	shipOverhead := 0.0
	if round := nsOf(ob.Benchmarks, "ShipRoundHTTP"); round > 0 {
		shipOverhead = round2(shipObsNs / round * 100)
	}
	ob.Derived = map[string]float64{
		"apply_overhead_pct":    applyOverhead,
		"ship_overhead_pct":     shipOverhead,
		"ship_obs_ns_per_round": round2(shipObsNs),
		"trace_record_ns":       round2(nsOf(ob.Benchmarks, "TraceRecord")),
		"trace_merge_ns":        round2(nsOf(ob.Benchmarks, "TraceMerge")),
	}
	if err := writeArtifact(filepath.Join(*out, "BENCH_obs.json"), ob); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", filepath.Join(*out, "BENCH_obs.json"))

	if *gateObs > 0 {
		failed := false
		for path, pct := range map[string]float64{"apply": applyOverhead, "ship": shipOverhead} {
			if pct > *gateObs {
				fmt.Fprintf(os.Stderr, "benchjson: obs overhead gate: %s path +%.2f%% instrumented, budget %.2f%%\n", path, pct, *gateObs)
				failed = true
			}
		}
		// The instrumentation must also be allocation-free: the header
		// marshals allocate either way, so the instrumented assembly
		// must allocate exactly what the baseline does.
		if a, u := allocsOf(ob.Benchmarks, "ShipAssembleObs"), allocsOf(ob.Benchmarks, "ShipAssembleBase"); a > u {
			fmt.Fprintf(os.Stderr, "benchjson: obs overhead gate: ship instrumentation allocates (%d allocs/op vs %d baseline)\n", a, u)
			failed = true
		}
		// The trace record path (ring store, enqueue correlation, latency
		// observation, slow-ring offer) sits on every instrumented apply:
		// it must be allocation-free outright.
		if a := allocsOf(ob.Benchmarks, "TraceRecord"); a > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: obs overhead gate: trace record path allocates (%d allocs/op, want 0)\n", a)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Printf("obs overhead gate: apply +%.2f%%, ship +%.2f%% (budget %.2f%%) — ok\n", applyOverhead, shipOverhead, *gateObs)
	}
}

// overheadPct is the instrumented path's cost over baseline, in
// percent (clamped at 0: a faster instrumented run is just noise).
func overheadPct(base, instr float64) float64 {
	if base <= 0 {
		return 0
	}
	pct := (instr - base) / base * 100
	if pct < 0 {
		return 0
	}
	return round2(pct)
}

func allocsOf(results []result, name string) int64 {
	for _, r := range results {
		if r.Name == name {
			return r.AllocsPerOp
		}
	}
	return 0
}
