package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the slow-event flight recorder.
const (
	// DefaultSlowRing is how many slow events a ring retains.
	DefaultSlowRing = 64
	// DefaultSlowThreshold is the latency beyond which an event's
	// timeline is worth keeping.
	DefaultSlowThreshold = 100 * time.Millisecond
)

// SlowEvent is one retained slow event: enough to fetch its full
// cross-member timeline from /cluster/trace/{session}?since_seq={seq}.
type SlowEvent struct {
	Session string `json:"session"`
	Seq     int64  `json:"seq"`
	DurNs   int64  `json:"dur_ns"`
	At      int64  `json:"at_unix_ns"`
}

// slowEntry is the fixed-size ring slot (a string header copy, no
// allocation).
type slowEntry struct {
	session string
	seq     int64
	durNs   int64
	at      int64
}

// SlowRing is a tail-sampled flight recorder: Note keeps only events
// whose latency crossed the threshold, so p99 outliers stay fetchable
// long after the trace rings have wrapped past them. Note is
// zero-allocation (threshold check is one atomic load; retention is a
// mutex'd struct store). A nil SlowRing is a no-op.
type SlowRing struct {
	mu        sync.Mutex
	ring      []slowEntry
	next      int
	full      bool
	threshold atomic.Int64 // nanoseconds
}

// NewSlowRing builds a ring of n slots (<= 0 means DefaultSlowRing)
// retaining events slower than threshold (<= 0 means
// DefaultSlowThreshold).
func NewSlowRing(n int, threshold time.Duration) *SlowRing {
	if n <= 0 {
		n = DefaultSlowRing
	}
	if threshold <= 0 {
		threshold = DefaultSlowThreshold
	}
	r := &SlowRing{ring: make([]slowEntry, n)}
	r.threshold.Store(int64(threshold))
	return r
}

// Threshold returns the current retention threshold (0 on nil).
func (r *SlowRing) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.threshold.Load())
}

// Note offers one event latency; it is retained only beyond the
// threshold. Zero-allocation; nil-safe.
func (r *SlowRing) Note(session string, seq, durNs int64) {
	if r == nil || durNs < r.threshold.Load() {
		return
	}
	at := time.Now().UnixNano()
	r.mu.Lock()
	r.ring[r.next] = slowEntry{session: session, seq: seq, durNs: durNs, at: at}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained events, slowest first.
func (r *SlowRing) Snapshot() []SlowEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.ring)
	}
	out := make([]SlowEvent, 0, n)
	for i := 0; i < n; i++ {
		e := r.ring[i]
		out = append(out, SlowEvent{Session: e.session, Seq: e.seq, DurNs: e.durNs, At: e.at})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurNs != out[j].DurNs {
			return out[i].DurNs > out[j].DurNs
		}
		return out[i].At > out[j].At
	})
	return out
}

// slowDump is the JSON shape of the slow-event endpoint.
type slowDump struct {
	ThresholdNs int64       `json:"threshold_ns"`
	Events      []SlowEvent `json:"events"`
}

// Handler serves GET /debug/slowest: the retained slow events, slowest
// first, plus the active threshold. A nil ring serves an empty list.
func (r *SlowRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		evs := r.Snapshot()
		if evs == nil {
			evs = []SlowEvent{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(slowDump{ThresholdNs: int64(r.Threshold()), Events: evs})
	})
}
