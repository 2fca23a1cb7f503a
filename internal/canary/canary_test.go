package canary

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// probeHarness is a standalone serving daemon plus a prober aimed at it.
func probeHarness(t *testing.T) (*Prober, *obs.Registry, *httptest.Server) {
	t.Helper()
	mgr := serve.NewManager(t.TempDir())
	t.Cleanup(func() { mgr.CloseAll() })
	srv := httptest.NewServer(serve.NewHandler(mgr))
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	p := New(Config{
		Target:   srv.URL,
		Session:  "probe",
		Interval: 10 * time.Millisecond,
		Timeout:  2 * time.Second,
		Nodes:    4,
		Registry: reg,
	})
	return p, reg, srv
}

func value(t *testing.T, reg *obs.Registry, name string, labels map[string]string) (float64, bool) {
	t.Helper()
	return reg.Snapshot().Value(name, labels)
}

// TestProbeOnceStandalone: a full cycle against a real serving handler
// exercises every leg — create, write, watch delivery, read-your-write
// — and each SLI records exactly one observation per cycle.
func TestProbeOnceStandalone(t *testing.T) {
	p, reg, _ := probeHarness(t)
	const cycles = 3
	for i := 0; i < cycles; i++ {
		if err := p.ProbeOnce(); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	sess := map[string]string{"session": "probe"}
	if v, ok := value(t, reg, "canary_probe_total", map[string]string{"session": "probe", "result": "ok"}); !ok || int(v) != cycles {
		t.Fatalf("canary_probe_total{result=ok} %v (found %v), want %d", v, ok, cycles)
	}
	for _, sli := range []string{
		"canary_write_ack_seconds_count",
		"canary_read_staleness_seconds_count",
		"canary_watch_delivery_seconds_count",
	} {
		if v, ok := value(t, reg, sli, sess); !ok || int(v) != cycles {
			t.Fatalf("%s %v (found %v), want %d", sli, v, ok, cycles)
		}
	}
	if v, ok := value(t, reg, "canary_blackouts_total", sess); !ok || v != 0 {
		t.Fatalf("canary_blackouts_total %v (found %v), want 0", v, ok)
	}
	// Beyond the Nodes cap the canary must emit moves, not joins: the
	// synthetic session's state stays bounded.
	for i := 0; i < 10; i++ {
		if err := p.ProbeOnce(); err != nil {
			t.Fatalf("probe %d: %v", cycles+i, err)
		}
	}
	if ev := p.nextEvent(); ev.Kind != "move" {
		t.Fatalf("event %d kind %q, want move past the Nodes cap", p.nextID, ev.Kind)
	}
}

// TestProbeFailureSLIs: a dead target fails the cycle, lands on the
// error counters, and opens a write-unavailability window.
func TestProbeFailureSLIs(t *testing.T) {
	p, reg, srv := probeHarness(t)
	if err := p.ProbeOnce(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	err := p.ProbeOnce()
	if err == nil {
		t.Fatal("probe against a dead target reported success")
	}
	if !strings.Contains(err.Error(), "write") {
		t.Fatalf("error %v does not name the failed leg", err)
	}
	if v, ok := value(t, reg, "canary_probe_total", map[string]string{"session": "probe", "result": "error"}); !ok || int(v) != 1 {
		t.Fatalf("canary_probe_total{result=error} %v (found %v), want 1", v, ok)
	}
	if v, _ := value(t, reg, "canary_op_errors_total", map[string]string{"session": "probe", "op": "write"}); int(v) != 1 {
		t.Fatalf("canary_op_errors_total{op=write} %v, want 1", v)
	}
	if p.outageStart.IsZero() {
		t.Fatal("failed write did not open an outage window")
	}
}

// TestNoteWriteBlackout: the blackout window runs from the FIRST failed
// write to the next success, repeated failures extend one window, and
// the close publishes duration and count.
func TestNoteWriteBlackout(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Target: "127.0.0.1:1", Session: "probe", Registry: reg})
	t0 := time.Unix(1000, 0)

	p.noteWrite(true, t0) // healthy: no window to close
	if v, _ := value(t, reg, "canary_blackouts_total", nil); v != 0 {
		t.Fatalf("blackouts after healthy write: %v, want 0", v)
	}
	p.noteWrite(false, t0.Add(1*time.Second))
	p.noteWrite(false, t0.Add(2*time.Second)) // extends, does not restart
	if got := p.outageStart; !got.Equal(t0.Add(1 * time.Second)) {
		t.Fatalf("outage start %v, want the FIRST failure", got)
	}
	p.noteWrite(true, t0.Add(3500*time.Millisecond))
	sess := map[string]string{"session": "probe"}
	if v, ok := value(t, reg, "canary_blackouts_total", sess); !ok || int(v) != 1 {
		t.Fatalf("canary_blackouts_total %v (found %v), want 1", v, ok)
	}
	if v, ok := value(t, reg, "canary_last_blackout_seconds", sess); !ok || v != 2.5 {
		t.Fatalf("canary_last_blackout_seconds %v (found %v), want 2.5", v, ok)
	}
	if v, _ := value(t, reg, "canary_failover_blackout_seconds_count", sess); int(v) != 1 {
		t.Fatalf("canary_failover_blackout_seconds_count %v, want 1", v)
	}
	if !p.outageStart.IsZero() {
		t.Fatal("closing the window did not reset the outage clock")
	}
	// A second, separate outage is a second window.
	p.noteWrite(false, t0.Add(10*time.Second))
	p.noteWrite(true, t0.Add(11*time.Second))
	if v, _ := value(t, reg, "canary_blackouts_total", sess); int(v) != 2 {
		t.Fatalf("canary_blackouts_total %v, want 2", v)
	}
}
