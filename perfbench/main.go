// Command perfbench is the repository's benchmark: four seeded,
// stationary workloads driven through the program's public APIs
// (serve.Manager/Session, cluster.Node over loopback HTTP,
// experiments.ByID). See README.md for the metrics, the workloads, and
// why each was chosen.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mobility-dense --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, measured with instrumentation off;
// with --trace 1 they are the per-layer set from a traced run. A failed
// correctness check exits non-zero and prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"mobility-dense":    runMobilityDense,
	"durable-sparse":    runDurableSparse,
	"replicated-sparse": runReplicatedSparse,
	"figures":           runFigures,
}

// runCtx is what every workload runner receives.
type runCtx struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string // scratch directory for WALs, removed at exit
	spans   *spanLog
}

// outcome is a workload's measured result: end-to-end metrics from an
// untraced run, or per-layer metrics from a traced one.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}

	fp := takeFingerprint()
	fmt.Printf("fingerprint: %s\n", fp)
	root := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	ctx := &runCtx{seed: *seed, seconds: *seconds, traced: *traced == 1, dir: dir}
	if ctx.traced {
		ctx.spans = newSpanLog()
	}
	out, err := run(ctx)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}

	catalog := endToEnd
	if ctx.traced {
		catalog = perLayer
		path := filepath.Join(root, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := ctx.spans.write(path, *workload, *seed, fp); err != nil {
			fatalf("writing spans: %v", err)
		}
		fmt.Printf("spans: %d written to %s\n", ctx.spans.len(), path)
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalog {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !ctx.traced {
				fatalf("%s: end-to-end metric %s was not measured", *workload, m.name)
			}
			v = 0 // the layer did no work on this workload
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("  %-34s %14.4f %-7s (%s is better)\n", m.name, v, m.unit, m.better)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fatalf reports a failure and exits non-zero without printing a result.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
