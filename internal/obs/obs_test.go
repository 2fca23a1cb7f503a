package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilReceivers: the whole surface must be safe (and a no-op) with
// nothing attached — that is the compile-out contract.
func TestNilReceivers(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has state")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry handed out a metric")
	}
	if r.Render() != "" {
		t.Fatal("nil registry rendered output")
	}
	var tr *Tracer
	tr.Record(1, StageApply)
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("nil tracer dumped %q", sb.String())
	}
	var hub *TraceHub
	if hub.Tracer("s") != nil {
		t.Fatal("nil hub handed out a tracer")
	}
	var l *Logger
	l.Error("nothing", "k", "v")
	var hl *Health
	hl.Set(true, "")
	if ok, _ := hl.Ready(); ok {
		t.Fatal("nil health reports ready")
	}
}

// TestConcurrentExactTotals hammers a counter, gauge, and histogram
// from N writers while a scraper renders continuously, then checks the
// totals are exact — run under -race this is the data-race proof for
// the lock-free update paths.
func TestConcurrentExactTotals(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops", "w", "all")
	h := reg.Histogram("test_lat_seconds", "lat", []float64{0.001, 0.01, 0.1}, "w", "all")
	g := reg.Gauge("test_depth", "depth")

	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var scr sync.WaitGroup
	scr.Add(1)
	go func() {
		defer scr.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Render()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000.0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scr.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Value(); got != writers*perWriter {
		t.Fatalf("gauge = %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
	var bucketSum int64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != writers*perWriter {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, writers*perWriter)
	}
	wantSum := 0.0
	for i := 0; i < perWriter; i++ {
		wantSum += float64(i%100) / 1000.0
	}
	wantSum *= writers
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
}

// TestPrometheusGolden pins the exact exposition output for a small
// fixed registry: sorted families, sorted children, cumulative buckets,
// +Inf, _sum, _count.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve_events_applied_total", "events applied", "session", "a").Add(7)
	reg.Counter("serve_events_applied_total", "events applied", "session", "b").Add(3)
	reg.Gauge("cluster_members_alive", "live members").Set(3)
	h := reg.Histogram("serve_apply_seconds", "apply latency", []float64{0.001, 0.01}, "session", "a")
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	want := strings.Join([]string{
		`# HELP cluster_members_alive live members`,
		`# TYPE cluster_members_alive gauge`,
		`cluster_members_alive 3`,
		`# HELP serve_apply_seconds apply latency`,
		`# TYPE serve_apply_seconds histogram`,
		`serve_apply_seconds_bucket{session="a",le="0.001"} 2`,
		`serve_apply_seconds_bucket{session="a",le="0.01"} 3`,
		`serve_apply_seconds_bucket{session="a",le="+Inf"} 4`,
		`serve_apply_seconds_sum{session="a"} 5.006`,
		`serve_apply_seconds_count{session="a"} 4`,
		`# HELP serve_events_applied_total events applied`,
		`# TYPE serve_events_applied_total counter`,
		`serve_events_applied_total{session="a"} 7`,
		`serve_events_applied_total{session="b"} 3`,
	}, "\n") + "\n"
	if got := reg.Render(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryReuse: same (name, labels) returns the same metric, so a
// recovered session keeps its cumulative series.
func TestRegistryReuse(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", "session", "s")
	a.Add(4)
	b := reg.Counter("x_total", "x", "session", "s")
	if a != b {
		t.Fatal("re-registration returned a different metric")
	}
	if b.Value() != 4 {
		t.Fatal("re-registration lost the count")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100) // overflow bucket reports the last finite bound
	if q := h2.Quantile(0.99); q != 2 {
		t.Fatalf("overflow p99 = %v, want 2", q)
	}
	var empty Histogram
	if q := (&empty).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
}

func TestScrapeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "a", "session", "x", "follower", "n2").Add(11)
	reg.Gauge("b_depth", "b").Set(-3)
	h := reg.Histogram("c_seconds", "c", []float64{0.5, 1}, "session", "x")
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(0.75)
	h.Observe(3)

	sc, err := ParseScrape(reg.Render())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("a_total", map[string]string{"session": "x", "follower": "n2"}); !ok || v != 11 {
		t.Fatalf("a_total = %v,%v", v, ok)
	}
	if v, ok := sc.Value("b_depth", nil); !ok || v != -3 {
		t.Fatalf("b_depth = %v,%v", v, ok)
	}
	if v, ok := sc.Value("a_total", map[string]string{"session": "nope"}); ok {
		t.Fatalf("matched absent labels: %v", v)
	}
	if v := sc.Sum("a_total", map[string]string{"session": "x"}); v != 11 {
		t.Fatalf("sum = %v", v)
	}
	q, ok := sc.Quantile("c_seconds", map[string]string{"session": "x"}, 0.5)
	if !ok || q <= 0 || q > 1 {
		t.Fatalf("scraped p50 = %v,%v", q, ok)
	}
	// Scraped quantile must agree with the in-process estimate.
	if direct := h.Quantile(0.5); math.Abs(q-direct) > 1e-9 {
		t.Fatalf("scraped p50 %v != direct %v", q, direct)
	}
	if _, ok := sc.Quantile("missing_seconds", nil, 0.5); ok {
		t.Fatal("quantile on a missing histogram succeeded")
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 6; i++ {
		tr.Record(int64(i), StageApply)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Ring of 4: seqs 3..6 survive, oldest first.
	for _, want := range []string{`"seq":3`, `"seq":4`, `"seq":5`, `"seq":6`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %s: %s", want, out)
		}
	}
	if strings.Contains(out, `"seq":2`) {
		t.Fatalf("dump kept an evicted entry: %s", out)
	}
	if strings.Index(out, `"seq":3`) > strings.Index(out, `"seq":6`) {
		t.Fatalf("dump not oldest-first: %s", out)
	}
	if !strings.Contains(out, `"stage":"apply"`) {
		t.Fatalf("dump missing stage name: %s", out)
	}
}

func TestLoggerLevelsAndFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelWarn)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	l.Debug("hidden")
	l.Info("hidden too")
	l.Error("ship failed", "component", "cluster", "session", "alpha", "err", "boom: connection refused")
	got := sb.String()
	want := `ts=2026-08-08T12:00:00.000Z level=error msg="ship failed" component=cluster session=alpha err="boom: connection refused"` + "\n"
	if got != want {
		t.Fatalf("log line:\n got %q\nwant %q", got, want)
	}
	if _, err := ParseLevel("nope"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
	if lv, err := ParseLevel("WARN"); err != nil || lv != LevelWarn {
		t.Fatalf("ParseLevel(WARN) = %v, %v", lv, err)
	}
}

// TestMetricUpdateZeroAlloc is the package-local alloc gate: the update
// paths the serve/cluster hot paths call must allocate nothing.
func TestMetricUpdateZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("z_total", "z")
	g := reg.Gauge("z_depth", "z")
	h := reg.Histogram("z_seconds", "z", nil)
	tr := NewTracer(64)
	if n := testing.AllocsPerRun(500, func() {
		c.Inc()
		g.Set(7)
		h.Observe(0.001)
		tr.Record(1, StageApply)
	}); n != 0 {
		t.Fatalf("metric updates allocated %v per op, want 0", n)
	}
	var nc *Counter
	var nh *Histogram
	var ntr *Tracer
	if n := testing.AllocsPerRun(500, func() {
		nc.Inc()
		nh.Observe(0.001)
		ntr.Record(1, StageApply)
	}); n != 0 {
		t.Fatalf("nil no-op updates allocated %v per op, want 0", n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts, interpolating linearly within the containing bucket. Values
// in the overflow (+Inf) bucket report the last finite bound. Returns 0
// when nothing has been observed or h is nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}
