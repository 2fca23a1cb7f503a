package serve

import "repro/internal/obs"

// Metrics is the serve layer's observability bundle: one obs.Registry
// (rendered at GET /metrics) plus one obs.TraceHub (per-session event
// traces at GET /debug/trace/{session}). Attach it to a Manager with
// Instrument BEFORE sessions are created; a nil *Metrics — the default
// — makes every instrumentation point a nil-receiver no-op, which is
// the compile-out-cheap contract the hot paths rely on.
type Metrics struct {
	reg *obs.Registry
	hub *obs.TraceHub
}

// NewMetrics bundles a registry and trace hub (either may be nil).
func NewMetrics(reg *obs.Registry, hub *obs.TraceHub) *Metrics {
	if reg == nil && hub == nil {
		return nil
	}
	return &Metrics{reg: reg, hub: hub}
}

// evictTrace drops a closed session's or replica's trace ring from the
// hub (nil-safe) — called when a session leaves the manager's registry
// for good, never on the promote path.
func (m *Metrics) evictTrace(id string) {
	if m == nil {
		return
	}
	m.hub.Evict(id)
}

// sessionObs holds one session's metric children, resolved once at
// session build so the hot paths touch only atomic pointers. The zero
// value (every field nil, on false) is the uninstrumented no-op state.
type sessionObs struct {
	on bool // any instrumentation attached: gates the time.Now() calls
	// follower marks a replica's bundle: the apply path then records the
	// follower-* trace stages instead of the primary ones, so a merged
	// cross-member timeline tells the two applies of one event apart.
	follower bool
	id       string // session identity, for the slow-event ring

	applied       *obs.Counter   // serve_events_applied_total
	rejected      *obs.Counter   // serve_backpressure_total
	mailboxDepth  *obs.Gauge     // serve_mailbox_depth
	applyLat      *obs.Histogram // serve_apply_seconds
	viewSeq       *obs.Gauge     // serve_view_seq
	viewPublishes *obs.Counter   // serve_view_publishes_total
	viewAge       *obs.Histogram // serve_view_publish_age_seconds
	watchers      *obs.Gauge     // serve_watchers
	watchDrops    *obs.Counter   // serve_watch_disconnects_total
	tracer        *obs.Tracer
	hub           *obs.TraceHub // slow-event ring feed (nil-safe)
}

// forSession resolves the per-session children (nil receiver yields the
// zero bundle).
func (m *Metrics) forSession(id string) sessionObs {
	if m == nil {
		return sessionObs{}
	}
	so := sessionObs{on: true, id: id, hub: m.hub}
	if r := m.reg; r != nil {
		so.applied = r.Counter("serve_events_applied_total", "events applied by the session writer (live applies, not recovery replay)", "session", id)
		so.rejected = r.Counter("serve_backpressure_total", "submissions rejected with 429 because the mailbox was full", "session", id)
		so.mailboxDepth = r.Gauge("serve_mailbox_depth", "apply-queue depth at the last submit or drain", "session", id)
		so.applyLat = r.Histogram("serve_apply_seconds", "latency of one event through the backend, WAL append included", nil, "session", id)
		so.viewSeq = r.Gauge("serve_view_seq", "sequence number of the newest published read view", "session", id)
		so.viewPublishes = r.Counter("serve_view_publishes_total", "read-view publications", "session", id)
		so.viewAge = r.Histogram("serve_view_publish_age_seconds", "age of the oldest applied-but-unpublished event at view publish", nil, "session", id)
		so.watchers = r.Gauge("serve_watchers", "live Watch subscribers", "session", id)
		so.watchDrops = r.Counter("serve_watch_disconnects_total", "Watch subscribers disconnected for lagging", "session", id)
	}
	so.tracer = m.hub.Tracer(id)
	return so
}

// forWAL resolves the WAL-level children for a session's log.
func (m *Metrics) forWAL(id string) walObs {
	if m == nil {
		return walObs{}
	}
	wo := walObs{}
	if r := m.reg; r != nil {
		wo.bytes = r.Counter("serve_wal_appended_bytes_total", "bytes appended to the session WAL (events, barriers, snapshots)", "session", id)
		wo.records = r.Counter("serve_wal_records_total", "event records appended to the session WAL", "session", id)
		wo.fsyncs = r.Counter("serve_wal_fsyncs_total", "fsyncs of the active WAL segment", "session", id)
		wo.fsyncLat = r.Histogram("serve_fsync_seconds", "latency of one WAL flush+fsync", nil, "session", id)
		wo.compactions = r.Counter("serve_wal_compactions_total", "WAL compactions (snapshot written, predecessors retired)", "session", id)
	}
	wo.tracer = m.hub.Tracer(id)
	return wo
}

// markFollower flips a replica's bundles to the follower-* trace
// stages (Metrics.forSession/forWAL build primary-stage bundles; the
// replica constructors re-mark them).
func (s *Session) markFollower() {
	s.obs.follower = true
	if s.wal != nil {
		s.wal.obs.follower = true
	}
}

// forRecode resolves per-strategy recode-latency histograms, aligned
// with the session's strategy order.
func (m *Metrics) forRecode(id string, strategies []string) []*obs.Histogram {
	if m == nil || m.reg == nil {
		return nil
	}
	hs := make([]*obs.Histogram, len(strategies))
	for i, name := range strategies {
		hs[i] = m.reg.Histogram("engine_recode_seconds", "one strategy's recoding time for one event", nil, "session", id, "strategy", name)
	}
	return hs
}
