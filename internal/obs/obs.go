// Package obs is the repo's dependency-free observability core: atomic
// counters, gauges, and fixed-bucket histograms with a lock-free
// Observe; a registry that renders the Prometheus text exposition
// format; a per-session event tracer (ring-buffered stage timestamps,
// dumpable as JSON); a leveled structured logger; and readiness
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
	"sync"
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
	ex      exemplar
}

// ExemplarWindow bounds how long a worst-observation exemplar is kept:
// an exemplar older than this is replaced by the next observation even
// if smaller, so the linked trace stays recent enough to still be in a
// flight-recorder ring.
const ExemplarWindow = 5 * time.Minute

// exemplar remembers the worst recent observation and the event seq
// that produced it — the link from a histogram's tail to a fetchable
// trace. The fast path (not a new worst, current exemplar fresh) is two
// atomic loads; only a new worst or an expired window takes the mutex,
// so Observe-with-exemplar keeps the zero-allocation lock-free-in-the-
// common-case contract.
type exemplar struct {
	mu  sync.Mutex
	val atomic.Uint64 // float64 bits of the retained observation
	seq atomic.Int64
	at  atomic.Int64 // unix ns when retained; 0 = never set
}

// ObserveExemplar is Observe plus exemplar upkeep: v is recorded in the
// buckets and, if it is the worst recent observation, retained together
// with the (session-scoped) seq that produced it.
func (h *Histogram) ObserveExemplar(v float64, seq int64) {
	if h == nil {
		return
	}
	h.Observe(v)
	now := time.Now().UnixNano()
	at := h.ex.at.Load()
	if at != 0 && v <= math.Float64frombits(h.ex.val.Load()) && now-at < int64(ExemplarWindow) {
		return
	}
	h.ex.mu.Lock()
	at = h.ex.at.Load()
	if at == 0 || v > math.Float64frombits(h.ex.val.Load()) || now-at >= int64(ExemplarWindow) {
		h.ex.val.Store(math.Float64bits(v))
		h.ex.seq.Store(seq)
		h.ex.at.Store(now)
	}
	h.ex.mu.Unlock()
}

// Exemplar returns the retained worst-recent observation, its seq, and
// when it was retained; ok is false when nothing has been retained (or
// h is nil).
func (h *Histogram) Exemplar() (v float64, seq int64, atUnixNs int64, ok bool) {
	if h == nil {
		return 0, 0, 0, false
	}
	h.ex.mu.Lock()
	defer h.ex.mu.Unlock()
	at := h.ex.at.Load()
	if at == 0 {
		return 0, 0, 0, false
	}
	return math.Float64frombits(h.ex.val.Load()), h.ex.seq.Load(), at, true
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
