package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, reported by every
// workload with instrumentation off. What "one request" and "one event"
// mean per workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"cpu_us_per_event", "us", "lower"},
	{"rss_mb", "MB", "lower"},
	{"recodings_per_event", "count", "lower"},
	{"max_code", "count", "lower"},
}

// figureIDs are the paper figures the figures workload regenerates, in
// experiments.All order.
var figureIDs = []string{"10a", "10b", "10c", "10d", "10e", "10f", "11a", "11b", "11c", "12a", "12b", "12c", "12d"}

// perLayer is the traced run's attribution. A layer a workload does not
// run reports 0.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"engine.step_us", "us", "lower"},
		{"adhoc.conflict_graph_us", "us", "lower"},
		{"core.recode_us", "us", "lower"},
		{"cp.recode_us", "us", "lower"},
		{"bbb.recode_us", "us", "lower"},
		{"core.recodings_per_event", "count", "lower"},
		{"cp.recodings_per_event", "count", "lower"},
		{"bbb.recodings_per_event", "count", "lower"},
		{"core.max_code", "count", "lower"},
		{"cp.max_code", "count", "lower"},
		{"bbb.max_code", "count", "lower"},
		{"trace.encode_ns", "ns", "lower"},
		{"trace.bytes_per_event", "B", "lower"},
		{"trace.decode_us_per_kevent", "us", "lower"},
		{"serve.mailbox_wait_us", "us", "lower"},
		{"serve.apply_us", "us", "lower"},
		{"serve.view_publish_us", "us", "lower"},
		{"serve.fsync_us", "us", "lower"},
		{"serve.fsyncs_per_event", "count", "lower"},
		{"serve.wal_bytes_per_event", "B", "lower"},
		{"serve.compactions", "count", "lower"},
		{"serve.watch_delivery_us", "us", "lower"},
		{"serve.view_read_ns", "ns", "lower"},
		{"serve.backpressure_per_kevent", "count", "lower"},
		{"serve.recover_tail_events", "count", "lower"},
		{"serve.read_p50_us", "us", "lower"},
		{"serve.watch_p50_ms", "ms", "lower"},
		{"serve.recover_s", "s", "lower"},
		{"cluster.ship_round_us", "us", "lower"},
		{"cluster.ship_rtt_us", "us", "lower"},
		{"cluster.follower_append_us", "us", "lower"},
		{"cluster.follower_apply_us", "us", "lower"},
		{"cluster.follower_fsync_us", "us", "lower"},
		{"cluster.requests_per_event", "count", "lower"},
		{"cluster.bytes_per_event", "B", "lower"},
		{"cluster.follower_ack_p50_ms", "ms", "lower"},
		{"cluster.follower_ack_p99_ms", "ms", "lower"},
	}
	for _, id := range figureIDs {
		ms = append(ms, metricSpec{"experiments.fig_s." + id, "s", "lower"})
	}
	return append(ms,
		metricSpec{"experiments.figures_s", "s", "lower"},
		metricSpec{"experiments.worker_util", "ratio", "higher"},
		metricSpec{"obs.overhead_pct", "%", "lower"},
		metricSpec{"client.late_p99_ms", "ms", "lower"},
		metricSpec{"client.error_rate", "ratio", "lower"},
		metricSpec{"attribution.gap_pct", "%", "lower"},
	)
}()

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is NaN for an empty sample. Per-layer times are means, so the
// layers of one path add up to the path's mean.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// takeFingerprint describes the machine a run was measured on.
func takeFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			load = strings.Join(f[:3], " ")
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q loadavg=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model, load)
}
