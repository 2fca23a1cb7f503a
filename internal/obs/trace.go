package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// TraceStage names one point in an event's life across the stack.
type TraceStage uint8

const (
	// StageEnqueue: the event was admitted to the session mailbox.
	StageEnqueue TraceStage = iota
	// StageApply: the writer applied it through the backend.
	StageApply
	// StageViewPublish: a read view reflecting it was published.
	StageViewPublish
	// StageFsync: the WAL prefix containing it was fsynced.
	StageFsync
	// StageShip: a replication batch containing it was sent.
	StageShip
	// StageFollowerAck: a follower acknowledged (applied + fsynced)
	// through it. Recorded twice per event with tracing on: once on the
	// follower when the ack is earned, once on the primary when the ack
	// is received — the member field tells them apart.
	StageFollowerAck
	// StageFollowerWALAppend: a follower appended the shipped record to
	// its own WAL.
	StageFollowerWALAppend
	// StageFollowerApply: a follower applied the shipped record through
	// its warm backend.
	StageFollowerApply
	// StageFollowerFsync: a follower fsynced the WAL prefix containing
	// it (the durability its ack promises).
	StageFollowerFsync
	// StageWatchDelivery: a Watch subscriber received the delta for it.
	StageWatchDelivery
)

var stageNames = [...]string{
	"enqueue", "apply", "view-publish", "fsync", "ship", "follower-ack",
	"follower-wal-append", "follower-apply", "follower-fsync", "watch-delivery",
}

func (s TraceStage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// ParseStage maps a stage name back to its TraceStage (the inverse of
// String, for trace-JSON consumers).
func ParseStage(name string) (TraceStage, bool) {
	for i, n := range stageNames {
		if n == name {
			return TraceStage(i), true
		}
	}
	return 0, false
}

// traceEntry is one recorded stage: fixed-size, so the ring never
// allocates after construction.
type traceEntry struct {
	seq   int64
	stage TraceStage
	at    int64 // unix nanoseconds
}

// Tracer is one session's event-stage ring buffer. Record is cheap
// (a mutex'd struct store, no allocation) and keeps only the newest
// RingSize entries; the ring is a flight recorder, not a log. A nil
// Tracer is a no-op.
type Tracer struct {
	mu     sync.Mutex
	member string // identity stamped into every emitted entry ("" omits it)
	ring   []traceEntry
	next   int
	full   bool
}

// DefaultTraceRing is the per-session ring capacity a TraceHub uses
// when none is given.
const DefaultTraceRing = 256

func newMemberTracer(ring int, member string) *Tracer {
	if ring <= 0 {
		ring = DefaultTraceRing
	}
	return &Tracer{ring: make([]traceEntry, ring), member: member}
}

// Record notes that seq reached stage now.
func (t *Tracer) Record(seq int64, stage TraceStage) {
	if t == nil {
		return
	}
	t.RecordAt(seq, stage, time.Now().UnixNano())
}

// RecordAt notes that seq reached stage at atUnixNs — for stages whose
// true time is carried from elsewhere (the enqueue timestamp rides the
// mailbox request and is recorded only once the applied seq is known).
// Same zero-allocation contract as Record.
func (t *Tracer) RecordAt(seq int64, stage TraceStage, atUnixNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = traceEntry{seq: seq, stage: stage, at: atUnixNs}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// snapshot copies the live ring, oldest entry first.
func (t *Tracer) snapshot() (entries []traceEntry, member string) {
	if t == nil {
		return nil, ""
	}
	t.mu.Lock()
	if t.full {
		entries = append(entries, t.ring[t.next:]...)
		entries = append(entries, t.ring[:t.next]...)
	} else {
		entries = append(entries, t.ring[:t.next]...)
	}
	member = t.member
	t.mu.Unlock()
	return entries, member
}

// Entries returns the ring's retained entries with seq >= since, oldest
// first, as the public TraceEntry shape the merge layer consumes.
func (t *Tracer) Entries(since int64) []TraceEntry {
	raw, member := t.snapshot()
	out := make([]TraceEntry, 0, len(raw))
	for _, e := range raw {
		if e.seq < since {
			continue
		}
		out = append(out, TraceEntry{Seq: e.seq, Member: member, Stage: e.stage.String(), At: e.at})
	}
	return out
}

// minSeq admits every entry (seq is int64 and may legitimately be 0).
const minSeq = -1 << 63

// WriteJSONSince is WriteJSON restricted to entries with seq >= since —
// the ?since_seq= filter of the debug endpoint.
func (t *Tracer) WriteJSONSince(w io.Writer, since int64) error {
	entries, member := t.snapshot()
	// strconv.AppendQuote emits Go-style \x escapes for invalid UTF-8,
	// which is not legal JSON — quote the member through encoding/json
	// (once per dump; this is the cold read path, not the record path).
	var memberJSON []byte
	if member != "" {
		memberJSON, _ = json.Marshal(member)
	}
	b := []byte{'['}
	first := true
	for _, e := range entries {
		if e.seq < since {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"seq":`...)
		b = strconv.AppendInt(b, e.seq, 10)
		if memberJSON != nil {
			b = append(b, `,"member":`...)
			b = append(b, memberJSON...)
		}
		b = append(b, `,"stage":"`...)
		b = append(b, e.stage.String()...)
		b = append(b, `","at_unix_ns":`...)
		b = strconv.AppendInt(b, e.at, 10)
		b = append(b, '}')
	}
	b = append(b, ']', '\n')
	_, err := w.Write(b)
	return err
}

// TraceHub hands out per-session tracers and owns the process's
// slow-event ring. A nil hub hands out nil tracers, which is how
// tracing compiles out when not enabled.
type TraceHub struct {
	mu      sync.Mutex
	ring    int
	member  string
	tracers map[string]*Tracer
	slow    *SlowRing
}

// NewTraceHub builds a hub whose tracers hold ring entries each (<= 0
// means DefaultTraceRing).
func NewTraceHub(ring int) *TraceHub {
	if ring <= 0 {
		ring = DefaultTraceRing
	}
	return &TraceHub{
		ring:    ring,
		tracers: make(map[string]*Tracer),
		slow:    NewSlowRing(DefaultSlowRing, DefaultSlowThreshold),
	}
}

// SetMember stamps a member identity into every entry this hub's
// tracers emit — what lets the fleet collector tell the primary's and a
// follower's records of the same (seq, stage) apart. Call it at node
// setup; tracers already handed out are updated too. Nil-safe.
func (h *TraceHub) SetMember(member string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.member = member
	for _, t := range h.tracers {
		t.mu.Lock()
		t.member = member
		t.mu.Unlock()
	}
	h.mu.Unlock()
}

// Tracer returns the session's tracer, creating it on first use.
// Returns nil on a nil hub.
func (h *TraceHub) Tracer(session string) *Tracer {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.tracers[session]
	if t == nil {
		t = newMemberTracer(h.ring, h.member)
		h.tracers[session] = t
	}
	return t
}

// Peek returns the session's tracer WITHOUT creating one — the
// collector's in-process scrape must not materialize rings for sessions
// this member does not host. Returns nil for unknown sessions or a nil
// hub (and a nil *Tracer is safe everywhere).
func (h *TraceHub) Peek(session string) *Tracer {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tracers[session]
}

// NoteSlow feeds the hub's slow-event ring: an event that took durNs
// beyond the ring's threshold is retained as (session, seq) for the
// slowest-events surfaces. Zero-allocation; nil-safe.
func (h *TraceHub) NoteSlow(session string, seq, durNs int64) {
	if h == nil {
		return
	}
	h.slow.Note(session, seq, durNs)
}

// Slow returns the hub's slow-event ring (nil on a nil hub).
func (h *TraceHub) Slow() *SlowRing {
	if h == nil {
		return nil
	}
	return h.slow
}

// Evict drops a closed session's tracer so the hub does not grow one
// ring per session ever hosted. The next Tracer(session) call starts a
// fresh ring; holders of the old tracer keep a detached (harmless)
// one. Nil-safe.
func (h *TraceHub) Evict(session string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	delete(h.tracers, session)
	h.mu.Unlock()
}

// Handler serves GET /debug/trace/{session}?since_seq=N: the session's
// ring as JSON, optionally restricted to entries with seq >= since_seq.
// Unknown sessions (or a nil hub) answer an empty array — the trace is
// a debug surface, absence is not an error.
func (h *TraceHub) Handler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		session := req.URL.Path[len(prefix):]
		since := int64(minSeq)
		if v := req.URL.Query().Get("since_seq"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "since_seq must be an integer", http.StatusBadRequest)
				return
			}
			since = n
		}
		t := h.Peek(session)
		w.Header().Set("Content-Type", "application/json")
		t.WriteJSONSince(w, since)
	})
}
