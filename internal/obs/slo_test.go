package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSLORatioObjective: a ratio objective over good/total counters
// computes windowed ratio and burn rate, breaches on burn, and clears
// once the bad interval slides out of the window.
func TestSLORatioObjective(t *testing.T) {
	reg := NewRegistry()
	ok := reg.Counter("probe_ok_total", "ok probes")
	all := reg.Counter("probe_total", "all probes")
	health := NewHealth("starting")
	health.Set(true, "")
	engine := NewSLO(reg, health, Objective{
		Name:     "probe-availability",
		Good:     Selector{Name: "probe_ok_total"},
		Total:    Selector{Name: "probe_total"},
		Target:   0.9,
		Window:   10 * time.Second,
		Critical: true,
	})

	t0 := time.Unix(1000, 0)
	engine.Tick(t0)
	v := engine.Verdicts()
	if len(v) != 1 || v[0].Breached || v[0].Ratio != 1 {
		t.Fatalf("empty window verdict: %+v", v)
	}

	// 10 probes, 5 failures: ratio 0.5, burn (0.5 error rate)/(0.1
	// budget) = 5 >= 1 -> breached, and the critical breach degrades
	// readiness.
	ok.Add(5)
	all.Add(10)
	engine.Tick(t0.Add(2 * time.Second))
	v = engine.Verdicts()
	if !v[0].Breached {
		t.Fatalf("expected breach: %+v", v[0])
	}
	if v[0].Ratio != 0.5 || v[0].BurnRate < 4.9 || v[0].BurnRate > 5.1 {
		t.Fatalf("ratio/burn: %+v", v[0])
	}
	if ready, reason := health.Ready(); ready || reason == "" {
		t.Fatalf("critical breach did not degrade readiness: %v %q", ready, reason)
	}

	// Healthy traffic, and the bad interval ages out of the 10s
	// window: the objective recovers and readiness is restored.
	ok.Add(100)
	all.Add(100)
	engine.Tick(t0.Add(4 * time.Second))
	engine.Tick(t0.Add(20 * time.Second))
	engine.Tick(t0.Add(40 * time.Second))
	v = engine.Verdicts()
	if v[0].Breached {
		t.Fatalf("breach did not clear after window slid: %+v", v[0])
	}
	if ready, _ := health.Ready(); !ready {
		t.Fatal("readiness not restored after breach cleared")
	}
}

// TestSLORecoveryRespectsDrain: the engine must not resurrect
// readiness it does not own — a drain that flips /readyz while an SLO
// breach is clearing stays not-ready.
func TestSLORecoveryRespectsDrain(t *testing.T) {
	reg := NewRegistry()
	ok := reg.Counter("g_total", "good")
	all := reg.Counter("t_total", "total")
	health := NewHealth("starting")
	health.Set(true, "")
	engine := NewSLO(reg, health, Objective{
		Name: "avail", Good: Selector{Name: "g_total"}, Total: Selector{Name: "t_total"},
		Target: 0.99, Window: 5 * time.Second, Critical: true,
	})
	t0 := time.Unix(2000, 0)
	engine.Tick(t0)
	all.Add(10) // 10 failures
	engine.Tick(t0.Add(time.Second))
	if ready, _ := health.Ready(); ready {
		t.Fatal("breach did not degrade")
	}
	// Operator starts a drain while breached.
	health.Set(false, "draining")
	ok.Add(1000)
	all.Add(1000)
	engine.Tick(t0.Add(30 * time.Second))
	if ready, reason := health.Ready(); ready || reason != "draining" {
		t.Fatalf("SLO recovery clobbered the drain: %v %q", ready, reason)
	}
}

// TestSLOLatencyObjective: a latency objective reads the histogram's
// cumulative buckets — observations over the threshold are the errors.
func TestSLOLatencyObjective(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("apply_seconds", "apply latency", []float64{0.01, 0.1, 1}, "session", "s")
	engine := NewSLO(reg, nil, Objective{
		Name:      "apply-p-fast",
		Latency:   Selector{Name: "apply_seconds"},
		Threshold: 0.1,
		Target:    0.95,
		Window:    time.Minute,
	})
	t0 := time.Unix(3000, 0)
	engine.Tick(t0)
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // over threshold
	}
	engine.Tick(t0.Add(time.Second))
	v := engine.Verdicts()[0]
	if v.Good != 90 || v.Total != 100 {
		t.Fatalf("good/total = %v/%v, want 90/100", v.Good, v.Total)
	}
	if !v.Breached {
		t.Fatalf("10%% slow vs 5%% budget should breach: %+v", v)
	}
}

// TestSLOHandler: GET /slo serves well-formed JSON verdicts.
func TestSLOHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("g_total", "g").Add(1)
	reg.Counter("t_total", "t").Add(1)
	engine := NewSLO(reg, nil, Objective{
		Name: "a", Good: Selector{Name: "g_total"}, Total: Selector{Name: "t_total"}, Target: 0.5,
	})
	engine.Tick(time.Unix(4000, 0))
	engine.Tick(time.Unix(4002, 0))

	rr := httptest.NewRecorder()
	engine.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /slo: %d", rr.Code)
	}
	var body struct {
		At       time.Time `json:"at"`
		Verdicts []Verdict `json:"verdicts"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if len(body.Verdicts) != 1 || body.Verdicts[0].Name != "a" {
		t.Fatalf("verdicts: %+v", body.Verdicts)
	}
	// A nil engine still serves an empty list — the endpoint is safe to
	// mount unconditionally.
	rr = httptest.NewRecorder()
	(*SLO)(nil).Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 200 || !json.Valid(rr.Body.Bytes()) {
		t.Fatalf("nil engine: %d %s", rr.Code, rr.Body.String())
	}
}

// Verdicts returns the latest evaluation (nil before the first Tick).
func (s *SLO) Verdicts() []Verdict {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Verdict, len(s.verdicts))
	copy(out, s.verdicts)
	return out
}
