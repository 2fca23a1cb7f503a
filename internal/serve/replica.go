package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"

	"repro/internal/adhoc"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// Replica errors.
var (
	// ErrReplicaGap rejects an Offer whose first record is beyond the
	// replica's next expected sequence number: the shipper must rewind
	// and resend from the replica's acked offset.
	ErrReplicaGap = errors.New("serve: shipped batch leaves a gap")
	// ErrReplicaExists rejects creating a replica whose ID is taken.
	ErrReplicaExists = errors.New("serve: replica already exists")
	// ErrNoReplica rejects operations on an unknown replica ID.
	ErrNoReplica = errors.New("serve: no such replica")
)

// Replica is a follower's copy of one session: a continuously
// recovering standby. Shipped records are appended to a local WAL
// (fsynced before they are acknowledged — the acked offset is a
// durability promise) and applied through the same recoding path a live
// session uses, so the replica always holds both a warm, readable state
// and a durable "snapshot + committed tail" log that the existing
// crash-recovery machinery can promote. There is no writer mailbox:
// Offer applies synchronously on the caller's goroutine, serialized by
// the replica's mutex, and reads go through the same atomically-swapped
// Views as a primary's.
type Replica struct {
	mu     sync.Mutex
	s      *Session // unstarted: backend + WAL, no writer goroutine
	path   string
	closed bool
	// compacted is the seq of the last compaction barrier honored, so a
	// primary re-sending its latest barrier does not trigger a fresh
	// compaction per batch.
	compacted int
	// promoteMu serializes Promote attempts (a retry after a transient
	// failure must not race a concurrent promotion over the same WAL).
	promoteMu sync.Mutex
}

// Seq returns the sequence number of the last applied (and durable)
// event — the replica's acknowledged offset.
func (r *Replica) Seq() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.seq
}

// View returns the replica's newest published read snapshot. Followers
// serve reads from it exactly as a primary would; never nil, never
// blocks.
func (r *Replica) View() *View { return r.s.view.Load() }

// Live reports whether the replica still serves reads. It turns false
// the moment a promotion or decommission closes the replica — the
// follower read path checks it so a request racing a failover gets a
// retryable rejection instead of a frozen, soon-to-be-stale view.
func (r *Replica) Live() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.closed && r.s.err == nil
}

// CompactBarrier honors a shipped compaction barrier: once the replica
// has applied through seq, it logs the barrier to its own WAL and
// compacts it — snapshot of the current state, sealed predecessors
// retired — mirroring the primary-side truncation. Barriers at or below
// the last honored one, or ahead of the replica's applied sequence, are
// ignored (the primary re-sends its latest barrier until the follower
// passes it).
func (r *Replica) CompactBarrier(seq int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	s := r.s
	if s.err != nil {
		return s.err
	}
	if s.wal == nil || seq <= r.compacted || s.seq < seq {
		return nil
	}
	if err := s.wal.appendBarrier(seq); err != nil {
		s.poison(err)
		return err
	}
	if err := s.compact(); err != nil {
		s.poison(err)
		return err
	}
	r.compacted = seq
	return nil
}

// Offer appends and applies shipped event records. from is the sequence
// number of the first event in evs; events at or below the replica's
// current sequence are duplicates from a shipper retry and are skipped,
// a batch starting past seq+1 is rejected with ErrReplicaGap. On
// success the new tail is fsynced BEFORE the new acked offset is
// returned — an acknowledged record survives a follower crash.
func (r *Replica) Offer(from int, evs []strategy.Event) (seq int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// One pprof label scope per shipped batch (never per event), so
	// replica apply work shows up under role=replica in CPU profiles
	// while the apply path itself stays allocation-free.
	pprof.Do(context.Background(), pprof.Labels("session", r.s.id, "role", "replica"),
		func(context.Context) { seq, err = r.offerLocked(from, evs) })
	return seq, err
}

func (r *Replica) offerLocked(from int, evs []strategy.Event) (int, error) {
	if r.closed {
		return r.s.seq, ErrClosed
	}
	s := r.s
	if s.err != nil {
		return s.seq, s.err
	}
	if from > s.seq+1 {
		return s.seq, fmt.Errorf("%w: batch starts at %d, replica at %d", ErrReplicaGap, from, s.seq)
	}
	skip := s.seq + 1 - from
	if skip >= len(evs) {
		return s.seq, nil // nothing new
	}
	for _, ev := range evs[skip:] {
		if err := s.applyEngine(ev, true); err != nil {
			return s.seq, err
		}
	}
	if s.wal != nil {
		if err := s.wal.sync(); err != nil {
			s.poison(err)
			return s.seq, err
		}
	}
	// The batch is durable and applied: this is the moment the follower's
	// ack (the returned offset) is earned.
	s.obs.tracer.Record(int64(s.seq), obs.StageFollowerAck)
	return s.seq, nil
}

// InspectState hands fn the replica's warm state (network, assignments
// aligned with the configured strategies, metrics), serialized against
// Offer. fn must not retain or mutate what it is handed.
func (r *Replica) InspectState(fn func(net *adhoc.Network, assigns []toca.Assignment, metrics []*strategy.Metrics)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	fn(r.s.eng.Network(), r.s.stateAssignments(), r.s.metrics)
	return nil
}

// close releases the replica gracefully: the WAL is flushed and
// fsynced. The on-disk log remains a valid
// recoverable "snapshot + tail".
func (r *Replica) close(abort bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.closed = true
	var err error
	if r.s.wal != nil {
		if abort {
			r.s.wal.abort()
		} else {
			err = r.s.wal.close()
		}
	}
	return err
}

// replicaConfig pins the replica invariants onto a session config:
// replicas (and the primaries that feed them) never compact, because
// the shipper tails the log as an append-only record stream.
func replicaConfig(cfg Config) Config {
	cfg.CompactEvery = -1
	return cfg
}

// OpenReplica rebuilds a follower replica from its existing local WAL —
// a demoted primary re-enlisting as a follower, or a follower process
// restart. The warm state is recovered exactly as a promotion would
// recover it.
func (m *Manager) OpenReplica(id string, cfg Config) (*Replica, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if m.dir == "" {
		return nil, fmt.Errorf("serve: manager has no WAL directory to open replica %q from", id)
	}
	cfg = replicaConfig(cfg)
	cfg.metrics = m.mx
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; ok {
		return nil, ErrSessionExists
	}
	if _, ok := m.replicas[id]; ok {
		return nil, ErrReplicaExists
	}
	path, err := m.walPath(id)
	if err != nil {
		return nil, err
	}
	s, err := buildSession(id, cfg, path)
	if err != nil {
		return nil, err
	}
	s.markFollower()
	r := &Replica{s: s, path: path}
	m.replicas[id] = r
	return r, nil
}

// InstallReplica builds (or rebuilds) a follower replica from a
// streamed WAL — the snapshot catch-up path: src is a PlanSnapshotTail
// transfer from the session's primary (snapshot record + committed
// event tail), installed atomically in place of whatever log the
// follower held, then recovered through the same code path a promotion
// runs. A replica already registered under the ID is closed and
// replaced: catch-up only runs when the local copy is too far behind
// the primary's retained log to ship forward.
func (m *Manager) InstallReplica(id string, cfg Config, src io.Reader) (*Replica, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if m.dir == "" {
		return nil, fmt.Errorf("serve: manager has no WAL directory for replica %q", id)
	}
	cfg = replicaConfig(cfg)
	cfg.metrics = m.mx
	m.mu.Lock()
	if _, ok := m.sessions[id]; ok {
		m.mu.Unlock()
		return nil, ErrSessionExists
	}
	old := m.replicas[id]
	delete(m.replicas, id)
	m.mu.Unlock()
	if old != nil {
		if err := old.close(false); err != nil && !errors.Is(err, ErrClosed) {
			return nil, err
		}
	}
	path, err := m.walPath(id)
	if err != nil {
		return nil, err
	}
	if err := InstallWAL(path, src); err != nil {
		return nil, err
	}
	s, err := buildSession(id, cfg, path)
	if err != nil {
		return nil, err
	}
	s.markFollower()
	r := &Replica{s: s, path: path}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; ok {
		r.close(false)
		return nil, ErrSessionExists
	}
	if _, ok := m.replicas[id]; ok {
		r.close(false)
		return nil, ErrReplicaExists
	}
	m.replicas[id] = r
	return r, nil
}

// GetReplica returns a live replica.
func (m *Manager) GetReplica(id string) (*Replica, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.replicas[id]
	return r, ok
}

// CloseReplica gracefully releases one replica, leaving its WAL on disk
// for a later OpenReplica or Promote-after-restart.
func (m *Manager) CloseReplica(id string) error {
	m.mu.Lock()
	r, ok := m.replicas[id]
	delete(m.replicas, id)
	m.mu.Unlock()
	if !ok {
		return ErrNoReplica
	}
	err := r.close(false)
	// Promote does NOT pass through here, so a failover keeps its trace
	// ring; a decommissioned replica gives its ring back.
	m.mx.evictTrace(id)
	return err
}

// Promote turns a follower replica into a live primary session by
// running the existing crash-recovery path over the replica's local
// WAL: the warm standby is discarded, the durable log re-opened, and
// the promoted session is bit-identical to the primary's state at the
// replica's acknowledged offset. The session is registered under the
// same ID and accepts writes immediately.
//
// The replica stays registered until the promotion succeeds, so a
// transient failure (an fsync error mid-close, an IO error during
// recovery) leaves a closed-but-registered replica a later Promote
// retry picks up — a one-shot error during failover must not make the
// session permanently unpromotable.
func (m *Manager) Promote(id string) (*Session, error) {
	m.mu.RLock()
	r, ok := m.replicas[id]
	m.mu.RUnlock()
	if !ok {
		return nil, ErrNoReplica
	}
	r.promoteMu.Lock()
	defer r.promoteMu.Unlock()
	// Re-check under the promote lock: a concurrent attempt may have
	// finished (or the replica been closed away) while we waited.
	m.mu.RLock()
	cur, ok := m.replicas[id]
	m.mu.RUnlock()
	if !ok || cur != r {
		return nil, ErrNoReplica
	}
	cfg := r.s.cfg
	if err := r.close(false); err != nil && !errors.Is(err, ErrClosed) {
		return nil, err
	}
	s, err := restoreSession(r.s.id, cfg, r.path)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.sessions[s.id]; dup {
		s.Close()
		return nil, ErrSessionExists
	}
	delete(m.replicas, id)
	m.sessions[s.id] = s
	return s, nil
}
