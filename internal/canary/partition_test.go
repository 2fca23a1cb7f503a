package canary

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestCanaryPartitionSLIs drives the prober through a link partition
// injected by the chaos net: availability dips while the canary's link
// to the daemon is cut, recovers on heal, and the blackout window the
// heal closes is published once and is never negative.
func TestCanaryPartitionSLIs(t *testing.T) {
	mgr := serve.NewManager(t.TempDir())
	t.Cleanup(func() { mgr.CloseAll() })
	srv := httptest.NewServer(serve.NewHandler(mgr))
	t.Cleanup(srv.Close)

	cnet := chaos.NewNet()
	cnet.Register("server", srv.Listener.Addr().String())
	reg := obs.NewRegistry()
	p := New(Config{
		Target:    srv.URL,
		Session:   "probe",
		Timeout:   2 * time.Second,
		Nodes:     4,
		Registry:  reg,
		Transport: cnet.Transport("canary", nil),
	})
	sess := map[string]string{"session": "probe"}

	// Healthy baseline.
	for i := 0; i < 3; i++ {
		if err := p.ProbeOnce(); err != nil {
			t.Fatalf("baseline probe %d: %v", i, err)
		}
	}
	if v, ok := value(t, reg, "canary_probe_total", map[string]string{"session": "probe", "result": "ok"}); !ok || int(v) != 3 {
		t.Fatalf("baseline ok cycles %v (found %v), want 3", v, ok)
	}

	// Partition: the canary's own link goes dark. Every cycle fails —
	// the availability dip a real client would see — and the FIRST
	// failure opens one write-unavailability window that later failures
	// extend, not restart.
	cnet.CutLink("canary", "server")
	for i := 0; i < 3; i++ {
		if err := p.ProbeOnce(); err == nil {
			t.Fatalf("probe %d succeeded across a cut link", i)
		}
	}
	if v, ok := value(t, reg, "canary_probe_total", map[string]string{"session": "probe", "result": "error"}); !ok || int(v) != 3 {
		t.Fatalf("error cycles during partition %v (found %v), want 3", v, ok)
	}
	if p.outageStart.IsZero() {
		t.Fatal("partition did not open an outage window")
	}
	firstFail := p.outageStart
	if v, _ := value(t, reg, "canary_blackouts_total", sess); v != 0 {
		t.Fatalf("blackout window closed mid-partition: %v", v)
	}
	if cnet.Dropped("canary", "server") == 0 {
		t.Fatal("chaos net recorded no drops on the cut link")
	}

	// Heal: the next cycle succeeds, availability recovers, and the
	// blackout publishes exactly once with a non-negative duration.
	cnet.HealLink("canary", "server")
	if err := p.ProbeOnce(); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if !p.outageStart.IsZero() {
		t.Fatal("healing write did not close the outage window")
	}
	if v, ok := value(t, reg, "canary_blackouts_total", sess); !ok || int(v) != 1 {
		t.Fatalf("canary_blackouts_total %v (found %v), want 1", v, ok)
	}
	if v, ok := value(t, reg, "canary_last_blackout_seconds", sess); !ok || v < 0 {
		t.Fatalf("canary_last_blackout_seconds %v (found %v), want >= 0", v, ok)
	}
	if got, _ := value(t, reg, "canary_last_blackout_seconds", sess); got > time.Since(firstFail).Seconds()+1 {
		t.Fatalf("blackout %vs longer than the partition itself", got)
	}
	if v, _ := value(t, reg, "canary_probe_total", map[string]string{"session": "probe", "result": "ok"}); int(v) != 4 {
		t.Fatalf("ok cycles after heal %v, want 4", v)
	}
}

// TestNoteWriteNegativeClamp: a wall-clock step backward between the
// failure and the healing write publishes a zero-length window, never
// a negative one.
func TestNoteWriteNegativeClamp(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Target: "127.0.0.1:1", Session: "probe", Registry: reg})
	t0 := time.Unix(2000, 0)
	p.noteWrite(false, t0)
	p.noteWrite(true, t0.Add(-5*time.Second)) // clock stepped back
	sess := map[string]string{"session": "probe"}
	if v, ok := value(t, reg, "canary_last_blackout_seconds", sess); !ok || v != 0 {
		t.Fatalf("canary_last_blackout_seconds %v (found %v), want clamped 0", v, ok)
	}
	if v, _ := value(t, reg, "canary_blackouts_total", sess); int(v) != 1 {
		t.Fatalf("canary_blackouts_total %v, want 1", v)
	}
}
