// Package obs is the repo's dependency-free observability core: atomic
// counters, gauges, and fixed-bucket histograms with a lock-free
// Observe; a registry that snapshots them into samples, rendered in the
// Prometheus text exposition format by the one writer the fleet merge
// also uses; a per-session event tracer (ring-buffered stage
// timestamps, dumpable as JSON); a log/slog constructor; and readiness
// plumbing for /healthz///readyz.
//
// Two contracts shape the design:
//
//   - Hot-path updates are zero-allocation. Counter.Add, Gauge.Set,
//     Histogram.Observe, and Tracer.Record allocate nothing; the serve
//     and cluster alloc gates (TestWALAppendZeroAlloc,
//     TestShipBatchAssemblyZeroAlloc) run with metrics ATTACHED to
//     enforce it.
//
//   - The layer is compile-out cheap when unused. Every method on every
//     type is a no-op on a nil receiver, and a nil *Registry hands out
//     nil metrics, so instrumented code calls s.obs.applied.Inc()
//     unconditionally — no registry attached means a nil check and a
//     return, never a branch forest at each call site.
//
// See docs/observability.md for the metric catalog and trace-stage
// glossary.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0 for the Prometheus contract; Add does not
// enforce it).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; a nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a gauge holding a float64 (replication-lag seconds and
// other fractional instantaneous values). Updates are a single atomic
// store of the float bits. A nil FloatGauge is a no-op.
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// DefLatencyBuckets are the default histogram bounds for latencies, in
// seconds: 10µs to 10s, roughly logarithmic.
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with a lock-free Observe:
// bucket counts, the total count, and the sum are all updated with
// atomics (the sum via a CAS loop over its float64 bits), so concurrent
// observers never serialize and a scrape never blocks a writer. A nil
// Histogram is a no-op.
//
// A scrape racing writers can observe a count that is momentarily ahead
// of the bucket sums (each field is atomic, the set is not); totals are
// exact once writers quiesce, which is what the scrape-side consumers
// (load reports, CI gates) measure.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// NewHistogram builds an unregistered histogram over the given bounds
// (nil means DefLatencyBuckets). Registry.Histogram is the usual
// constructor; this one exists for tests and ad-hoc aggregation.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}
