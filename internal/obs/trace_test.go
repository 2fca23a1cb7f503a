package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// dumpEntries parses a tracer's JSON dump.
func dumpEntries(t *testing.T, tr *Tracer) []struct {
	Seq   int64  `json:"seq"`
	Stage string `json:"stage"`
	At    int64  `json:"at_unix_ns"`
} {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Seq   int64  `json:"seq"`
		Stage string `json:"stage"`
		At    int64  `json:"at_unix_ns"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("dump is not JSON: %v\n%s", err, sb.String())
	}
	return out
}

// TestTracerWraparoundMany: many full wraps of the ring keep exactly
// the newest capacity entries, oldest first.
func TestTracerWraparoundMany(t *testing.T) {
	const ring = 8
	tr := NewTracer(ring)
	const n = 10*ring + 3 // lands mid-ring so the split copy is exercised
	for i := 1; i <= n; i++ {
		tr.Record(int64(i), StageApply)
	}
	got := dumpEntries(t, tr)
	if len(got) != ring {
		t.Fatalf("dump has %d entries, want %d", len(got), ring)
	}
	for i, e := range got {
		want := int64(n - ring + 1 + i)
		if e.Seq != want {
			t.Fatalf("entry %d seq %d, want %d (not oldest-first after wrap)", i, e.Seq, want)
		}
	}
}

// TestTracerConcurrentRecord: hammer Record from many goroutines with
// concurrent dumps — the race detector owns the memory-safety verdict;
// this asserts the ring still holds exactly capacity valid entries.
func TestTracerConcurrentRecord(t *testing.T) {
	const ring = 64
	tr := NewTracer(ring)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(int64(g*1000+i), TraceStage(i%6))
			}
		}(g)
	}
	// Concurrent readers must never see torn entries.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			for i := 0; i < 50; i++ {
				sb.Reset()
				tr.WriteJSON(&sb)
				if !json.Valid([]byte(sb.String())) {
					panic("mid-run dump is not valid JSON")
				}
			}
		}()
	}
	wg.Wait()
	got := dumpEntries(t, tr)
	if len(got) != ring {
		t.Fatalf("dump has %d entries, want full ring %d", len(got), ring)
	}
	for i, e := range got {
		if e.Stage == "unknown" {
			t.Fatalf("entry %d has a torn stage: %+v", i, e)
		}
	}
}

// TestTraceHubEviction: a closed session's ring is dropped — the hub
// handler answers empty for it, and a later Tracer call starts fresh
// instead of resurrecting old entries.
func TestTraceHubEviction(t *testing.T) {
	hub := NewTraceHub(16)
	tr := hub.Tracer("s1")
	tr.Record(7, StageApply)
	hub.Tracer("s2").Record(9, StageFsync)

	get := func(session string) string {
		rr := httptest.NewRecorder()
		hub.Handler("/debug/trace/").ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace/"+session, nil))
		return rr.Body.String()
	}
	if !strings.Contains(get("s1"), `"seq":7`) {
		t.Fatalf("pre-eviction dump missing entry: %s", get("s1"))
	}

	hub.Evict("s1")
	if body := get("s1"); strings.Contains(body, `"seq":7`) {
		t.Fatalf("evicted session still serves entries: %s", body)
	}
	// Unaffected sessions keep their rings.
	if !strings.Contains(get("s2"), `"seq":9`) {
		t.Fatalf("eviction touched another session: %s", get("s2"))
	}
	// Re-opening the session starts a fresh ring.
	fresh := hub.Tracer("s1")
	if fresh == tr {
		t.Fatal("post-eviction Tracer returned the evicted ring")
	}
	if body := get("s1"); strings.Contains(body, `"seq":7`) {
		t.Fatalf("fresh ring carries stale entries: %s", body)
	}
	// The detached tracer stays safe to use.
	tr.Record(8, StageShip)
	// Nil hub stays a no-op.
	(*TraceHub)(nil).Evict("x")
}

// NewTracer builds a tracer with the given ring capacity (<= 0 means
// DefaultTraceRing).
func NewTracer(ring int) *Tracer {
	return newMemberTracer(ring, "")
}

// WriteJSON dumps the ring, oldest entry first, as a JSON array of
// {"seq":N,"member":"a","stage":"apply","at_unix_ns":T} objects (the
// member field is omitted when no identity was configured).
func (t *Tracer) WriteJSON(w io.Writer) error {
	return t.WriteJSONSince(w, minSeq)
}
