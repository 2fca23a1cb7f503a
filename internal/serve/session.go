package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
)

// Errors returned by the session admission and lifecycle paths.
var (
	// ErrBackpressure rejects a submission because the session's mailbox
	// is full: the caller should back off and retry (HTTP surfaces it as
	// 429). Admission control is a hard bound — the writer never queues
	// unboundedly and readers are never blocked by a flooded writer.
	ErrBackpressure = errors.New("serve: session mailbox full")
	// ErrClosed rejects operations on a closed session.
	ErrClosed = errors.New("serve: session closed")
)

// Config parameterizes one session.
type Config struct {
	// Strategies to host, in result order (default Minim, CP, BBB).
	Strategies []string
	// Mailbox is the apply-queue capacity (default 256). Submissions
	// beyond it fail fast with ErrBackpressure.
	Mailbox int
	// CompactEvery triggers a WAL snapshot + compaction after that many
	// events since the last snapshot (default 4096; < 0 disables).
	CompactEvery int
	// SyncEvery forces a WAL flush+fsync every N events (default 0: group
	// commit at mailbox drains, fsync on compaction and close). The
	// counter runs across segment boundaries.
	SyncEvery int
	// SegmentBytes seals the active WAL segment and starts the next one
	// once it reaches this many bytes (default 0: one unbounded
	// segment). Sealed segments are immutable, which gives WAL shipping
	// its batch units and lets compaction retire whole files.
	SegmentBytes int
	// WatchBuffer is the per-subscriber delta buffer (default 64). A
	// subscriber that falls further behind is disconnected (its channel
	// closes) and must re-snapshot and re-subscribe.
	WatchBuffer int
	// Validate re-verifies every strategy's CA1/CA2 after every event
	// (slow; tests).
	Validate bool

	// metrics is the observability bundle the owning Manager injects
	// (Manager.Instrument); nil leaves every instrumentation point a
	// no-op. Unexported on purpose: sessions are instrumented through
	// their manager, not per-config.
	metrics *Metrics
}

func (c Config) withDefaults() Config {
	if len(c.Strategies) == 0 {
		c.Strategies = []string{"Minim", "CP", "BBB"}
	}
	if c.Mailbox <= 0 {
		c.Mailbox = 256
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 4096
	}
	if c.WatchBuffer <= 0 {
		c.WatchBuffer = 64
	}
	return c
}

// Delta is one assignment-change notification delivered to Watch
// subscribers: the event and, per strategy, the nodes whose codes
// changed.
type Delta struct {
	Seq     int
	Event   strategy.Event
	Recoded map[string]map[graph.NodeID]toca.Color
}

// watcher is one Watch subscription. Its mutex serializes the writer's
// sends against cancellation so the channel is never closed mid-send.
type watcher struct {
	mu   sync.Mutex
	ch   chan Delta
	dead bool
}

func (w *watcher) deliver(d Delta) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return false
	}
	select {
	case w.ch <- d:
		return true
	default:
		// Lagging subscriber: disconnect rather than block the writer.
		w.dead = true
		close(w.ch)
		return false
	}
}

func (w *watcher) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.dead {
		w.dead = true
		close(w.ch)
	}
}

type reqKind int

const (
	reqEvent reqKind = iota
	reqBarrier
	reqInspect
	reqClose
	reqAbort
)

type request struct {
	kind reqKind
	ev   strategy.Event
	res  chan error
	fn   func()
	// enq is the mailbox-admission time (unix ns), carried with the
	// event so StageEnqueue can be recorded against the REAL applied seq
	// once it is known — a parallel submit counter desyncs permanently
	// the first time the engine refuses an event. 0 when uninstrumented.
	enq int64
}

// Session hosts one simulation: a single-writer apply loop over a
// bounded mailbox, an engine backend, a durable WAL, atomically-swapped
// read Views, and Watch subscriptions.
type Session struct {
	id  string
	cfg Config

	mail chan request
	view atomic.Pointer[View]

	submitMu sync.RWMutex
	closed   bool

	watchMu  sync.Mutex
	watchers []*watcher

	// Writer-goroutine state.
	seq     int
	eng     *engine.Engine
	hosted  []sim.Hosted
	metrics []*strategy.Metrics
	wal     *wal
	err     error

	// Observability (no-op zero values when uninstrumented).
	obs sessionObs

	done chan struct{}
}

// newSession builds a session over fresh state. walPath == "" disables
// durability.
func newSession(id string, cfg Config, walPath string) (*Session, error) {
	cfg = cfg.withDefaults()
	s := &Session{id: id, cfg: cfg, mail: make(chan request, cfg.Mailbox), done: make(chan struct{})}
	s.eng = engine.New()
	for _, name := range cfg.Strategies {
		h, err := sim.NewSharedStrategy(sim.StrategyName(name), s.eng.Network())
		if err != nil {
			return nil, err
		}
		s.eng.Subscribe(h)
		s.hosted = append(s.hosted, h)
	}
	s.eng.InstrumentRecode(cfg.metrics.forRecode(id, cfg.Strategies))
	s.metrics = make([]*strategy.Metrics, len(s.hosted))
	for i := range s.metrics {
		s.metrics[i] = strategy.NewMetrics()
	}
	if walPath != "" {
		snap, err := trace.CaptureSnapshot(0, s.eng.Network(), cfg.Strategies, s.stateAssignments(), s.metrics)
		if err != nil {
			return nil, err
		}
		s.wal, err = createWAL(walPath, snap)
		if err != nil {
			return nil, err
		}
		s.wal.syncEvery = cfg.SyncEvery
		s.wal.segmentBytes = int64(cfg.SegmentBytes)
		s.wal.obs = cfg.metrics.forWAL(id)
	}
	s.obs = cfg.metrics.forSession(id)
	s.view.Store(newView(cfg.Strategies))
	go s.run()
	return s, nil
}

// restoreSession rebuilds a session from its WAL: the snapshot restores
// topology, assignments, and metrics directly, and the committed event
// tail is re-applied through the normal recoding path (without
// re-logging). The result is bit-identical to the pre-crash state.
func restoreSession(id string, cfg Config, walPath string) (*Session, error) {
	s, err := buildSession(id, cfg, walPath)
	if err != nil {
		return nil, err
	}
	go s.run()
	return s, nil
}

// buildSession is restoreSession without the writer goroutine: the
// shared recovery core that both a restored session and a follower
// replica (which applies shipped records with no mailbox) start from.
func buildSession(id string, cfg Config, walPath string) (*Session, error) {
	cfg = cfg.withDefaults()
	snap, tailEvents, w, err := openWAL(walPath)
	if err != nil {
		return nil, err
	}
	w.syncEvery = cfg.SyncEvery
	w.segmentBytes = int64(cfg.SegmentBytes)
	fail := func(err error) (*Session, error) {
		w.abort()
		return nil, err
	}
	if len(snap.Strategies) != len(cfg.Strategies) {
		return fail(fmt.Errorf("serve: wal %s hosts %d strategies, config wants %d", walPath, len(snap.Strategies), len(cfg.Strategies)))
	}
	for i, ss := range snap.Strategies {
		if ss.Name != cfg.Strategies[i] {
			return fail(fmt.Errorf("serve: wal %s strategy %d is %q, config wants %q", walPath, i, ss.Name, cfg.Strategies[i]))
		}
	}
	s := &Session{id: id, cfg: cfg, mail: make(chan request, cfg.Mailbox), done: make(chan struct{}), wal: w}
	specs := make([]sim.Spec, len(cfg.Strategies))
	for i, name := range cfg.Strategies {
		if specs[i], err = sim.SpecOf(sim.StrategyName(name)); err != nil {
			return fail(err)
		}
	}
	// Rebuild the network from the snapshot (join order is the sorted
	// snapshot order; the digraph is a pure function of the configs, so
	// subsequent recodings are identical), install the snapshot
	// assignments and metrics, then roll the tail forward.
	net := adhoc.New()
	ids, cfgs := snap.Configs()
	for i, nid := range ids {
		if err := net.Join(nid, cfgs[i]); err != nil {
			return fail(err)
		}
	}
	s.eng = engine.Adopt(net)
	s.metrics = make([]*strategy.Metrics, len(specs))
	for i, spec := range specs {
		h := spec.New(net, snap.Strategies[i].Assignment())
		s.eng.Subscribe(h)
		s.hosted = append(s.hosted, h)
		if s.metrics[i], err = snap.Strategies[i].RestoreMetrics(); err != nil {
			return fail(err)
		}
	}
	s.seq = snap.Seq
	// Publish the snapshot state first: the tail replay below rolls the
	// view forward event by event, same as live operation.
	s.view.Store(rebuildView(s.seq, net, cfg.Strategies, s.stateAssignments(), s.metrics))
	for _, ev := range tailEvents {
		if err := s.applyEngine(ev, false); err != nil {
			return fail(err)
		}
	}
	s.eng.InstrumentRecode(cfg.metrics.forRecode(id, cfg.Strategies))
	// Instrument only after the tail replay: recovery re-applies are not
	// service traffic and must not pollute the latency series.
	s.obs = cfg.metrics.forSession(id)
	s.wal.obs = cfg.metrics.forWAL(id)
	s.obs.viewSeq.Set(int64(s.seq))
	return s, nil
}

// ---- Public surface (any goroutine) ----

// ID returns the session identity.
func (s *Session) ID() string { return s.id }

// View returns the newest published read snapshot. Never nil; never
// blocks.
func (s *Session) View() *View { return s.view.Load() }

// Submit enqueues one event without waiting for it to apply. It fails
// fast with ErrBackpressure when the mailbox is full and ErrClosed after
// Close.
func (s *Session) Submit(ev strategy.Event) error {
	return s.enqueue(request{kind: reqEvent, ev: ev})
}

// Apply enqueues one event and waits for its outcome (admission control
// still applies: a full mailbox fails fast).
func (s *Session) Apply(ev strategy.Event) error {
	res := make(chan error, 1)
	if err := s.enqueue(request{kind: reqEvent, ev: ev, res: res}); err != nil {
		return err
	}
	return <-res
}

// Barrier waits until every previously accepted event is applied and
// flushed to the WAL.
func (s *Session) Barrier() error {
	res := make(chan error, 1)
	if err := s.enqueueWait(request{kind: reqBarrier, res: res}); err != nil {
		return err
	}
	return <-res
}

// Watch subscribes to assignment-change deltas. The returned cancel
// function is idempotent; the channel closes on cancellation, session
// close, or when the subscriber lags more than the configured buffer.
func (s *Session) Watch() (<-chan Delta, func()) {
	w := &watcher{ch: make(chan Delta, s.cfg.WatchBuffer)}
	// Register under the submit lock: once closed is set no new watcher
	// may enter the slice (finish stops only the watchers it sees), so a
	// Watch racing a Close gets an immediately-closed channel instead of
	// one nobody will ever touch.
	s.submitMu.RLock()
	if s.closed {
		s.submitMu.RUnlock()
		w.stop()
		return w.ch, func() {}
	}
	s.watchMu.Lock()
	s.watchers = append(s.watchers, w)
	s.obs.watchers.Set(int64(len(s.watchers)))
	s.watchMu.Unlock()
	s.submitMu.RUnlock()
	cancel := func() {
		s.watchMu.Lock()
		for i, x := range s.watchers {
			if x == w {
				s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
				break
			}
		}
		s.obs.watchers.Set(int64(len(s.watchers)))
		s.watchMu.Unlock()
		w.stop()
	}
	return w.ch, cancel
}

// Close drains the mailbox, writes a final snapshot (compacting the
// WAL), and stops the writer. Subsequent operations return ErrClosed.
func (s *Session) Close() error { return s.shutdown(reqClose) }

// abortForTest simulates a crash: the writer stops where it is and the
// WAL keeps only what earlier group commits pushed to the OS — no final
// flush, snapshot, or fsync.
func (s *Session) abortForTest() error { return s.shutdown(reqAbort) }

func (s *Session) shutdown(kind reqKind) error {
	s.submitMu.Lock()
	if s.closed {
		s.submitMu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.submitMu.Unlock()
	res := make(chan error, 1)
	s.mail <- request{kind: kind, res: res} // writer still draining; no new senders
	err := <-res
	<-s.done
	return err
}

// InspectState runs fn on the writer goroutine against quiesced state:
// the backend's authoritative network plus, aligned with Strategies(),
// the live assignments and cumulative metrics. It is the exported
// inspection hook differential tests outside this package (the cluster
// failover suite) verify bit-identity with; fn must not retain or
// mutate what it is handed.
func (s *Session) InspectState(fn func(net *adhoc.Network, assigns []toca.Assignment, metrics []*strategy.Metrics)) error {
	return s.inspect(func() {
		fn(s.eng.Network(), s.stateAssignments(), s.metrics)
	})
}

// MarkCompactBarrier appends a compaction-barrier record at the
// session's current sequence number and flushes it to the log. The
// record is the first half of replicated compaction (package cluster):
// it travels the WAL stream to every follower, telling each to compact
// its own log once it has applied through the returned seq; the primary
// itself compacts later, via Compact, once its followers have
// acknowledged past the barrier. Durable sessions only.
func (s *Session) MarkCompactBarrier() (int, error) {
	var (
		seq  int
		ferr error
	)
	err := s.inspect(func() {
		if s.wal == nil {
			ferr = fmt.Errorf("serve: session %q has no WAL to mark a barrier in", s.id)
			return
		}
		seq = s.seq
		if err := s.wal.appendBarrier(seq); err != nil {
			s.poison(err)
			ferr = err
			return
		}
		if err := s.wal.flush(); err != nil {
			s.poison(err)
			ferr = err
		}
	})
	if err != nil {
		return 0, err
	}
	return seq, ferr
}

// Compact captures the session's current state as a fresh snapshot
// segment and retires every sealed segment it supersedes — the explicit
// form of the CompactEvery auto-compaction, for callers (the cluster
// compaction coordinator) that must gate truncation on replication
// progress. Durable sessions only.
func (s *Session) Compact() error {
	var ferr error
	err := s.inspect(func() {
		if s.wal == nil {
			ferr = fmt.Errorf("serve: session %q has no WAL to compact", s.id)
			return
		}
		if err := s.compact(); err != nil {
			s.poison(err)
			ferr = err
		}
	})
	if err != nil {
		return err
	}
	return ferr
}

// inspect runs fn on the writer goroutine against quiesced state, so
// fn may read the writer's private fields race-free.
func (s *Session) inspect(fn func()) error {
	res := make(chan error, 1)
	if err := s.enqueueWait(request{kind: reqInspect, res: res, fn: fn}); err != nil {
		return err
	}
	return <-res
}

// enqueue is the admission-controlled submission path.
func (s *Session) enqueue(req request) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.obs.on && req.kind == reqEvent {
		// The admission time rides the request; the writer records
		// StageEnqueue with it once the applied seq is known, so refused
		// events never desync the trace from the sequence.
		req.enq = time.Now().UnixNano()
	}
	select {
	case s.mail <- req:
		if s.obs.on && req.kind == reqEvent {
			s.obs.mailboxDepth.Set(int64(len(s.mail)))
		}
		return nil
	default:
		s.obs.rejected.Inc()
		return ErrBackpressure
	}
}

// enqueueWait is enqueue for control requests that should wait for a
// slot instead of bouncing (barriers, inspection).
func (s *Session) enqueueWait(req request) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.mail <- req
	return nil
}

// ---- Writer goroutine ----

func (s *Session) run() {
	// Label the writer goroutine so -pprof CPU profiles attribute work
	// by session and role out of the box. Set once per goroutine —
	// never on the per-event path, so the apply hot path stays
	// zero-allocation.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("session", s.id, "role", "writer")))
	defer close(s.done)
	for req := range s.mail {
		switch req.kind {
		case reqEvent:
			err := s.err
			if err == nil {
				err = s.applyEngine(req.ev, true)
				if err == nil && req.enq != 0 {
					// Applied: s.seq is now the event's real sequence
					// number — the enqueue stage correlates exactly
					// (carried admission time, post-apply record).
					s.obs.tracer.RecordAt(int64(s.seq), obs.StageEnqueue, req.enq)
				}
			}
			if req.res != nil {
				req.res <- err
			}
		case reqBarrier, reqInspect:
			err := s.err
			if err == nil && s.wal != nil {
				// A barrier also publishes every accepted event to the
				// OS: WAL tailers (replication shippers) see the full
				// prefix once Barrier returns.
				if err = s.wal.flush(); err != nil {
					s.poison(err)
				}
			}
			if err == nil && req.fn != nil {
				req.fn()
			}
			req.res <- err
		case reqClose, reqAbort:
			req.res <- s.finish(req.kind == reqAbort)
			return
		}
		if s.obs.on {
			s.obs.mailboxDepth.Set(int64(len(s.mail)))
		}
		if len(s.mail) == 0 {
			s.drainPoint()
		}
	}
}

// drainPoint runs group-commit work when the mailbox empties: flush the
// WAL.
func (s *Session) drainPoint() {
	if s.err == nil && s.wal != nil {
		if err := s.wal.flush(); err != nil {
			s.poison(err)
		}
	}
}

func (s *Session) poison(err error) {
	if s.err == nil {
		s.err = err
	}
}

// applyEngine is the per-event path. logIt is false only during WAL
// restore (the event is already durable).
func (s *Session) applyEngine(ev strategy.Event, logIt bool) error {
	var t0 time.Time
	if s.obs.on {
		t0 = time.Now()
	}
	outs, err := s.eng.Apply(ev)
	if err != nil {
		if outs == nil {
			// Topology rejection (duplicate join, unknown node): the
			// engine state is untouched — the event is refused, the
			// session stays healthy, nothing is logged.
			return err
		}
		// A subscriber failed mid-fanout: state is inconsistent, poison.
		s.poison(err)
		return err
	}
	if logIt && s.wal != nil {
		if err := s.wal.append(ev); err != nil {
			s.poison(err)
			return err
		}
	}
	s.seq++
	for i := range s.hosted {
		s.metrics[i].Record(ev.Kind, outs[i])
	}
	if s.cfg.Validate {
		g := s.eng.Network().Graph()
		for i, h := range s.hosted {
			if vs := toca.Verify(g, h.Assignment()); len(vs) > 0 {
				err := fmt.Errorf("serve: %s: event %d left %d violations, first: %v", s.cfg.Strategies[i], s.seq-1, len(vs), vs[0])
				s.poison(err)
				return err
			}
		}
	}
	var postCfg adhoc.Config
	if ev.Kind != strategy.Leave {
		postCfg, _ = s.eng.Network().Config(ev.ID)
	}
	nv := s.view.Load().next(ev, postCfg, s.eng.Network().Size(), outs, s.metrics)
	s.view.Store(nv)
	if s.obs.on {
		el := time.Since(t0)
		if logIt {
			s.obs.applied.Inc()
		}
		s.obs.applyLat.ObserveExemplar(el.Seconds(), int64(s.seq))
		s.obs.viewSeq.Set(int64(s.seq))
		s.obs.viewPublishes.Inc()
		s.obs.viewAge.Observe(el.Seconds())
		st := obs.StageApply
		if s.obs.follower {
			st = obs.StageFollowerApply
		}
		s.obs.tracer.Record(int64(s.seq), st)
		s.obs.tracer.Record(int64(s.seq), obs.StageViewPublish)
		s.obs.hub.NoteSlow(s.obs.id, int64(s.seq), int64(el))
	}
	s.notify(Delta{Seq: s.seq, Event: ev, Recoded: recodedByName(s.cfg.Strategies, outs)})
	if logIt && s.wal != nil && s.cfg.CompactEvery > 0 && s.wal.tail >= s.cfg.CompactEvery {
		if err := s.compact(); err != nil {
			s.poison(err)
			return err
		}
	}
	return nil
}

// compact captures the current state and rewrites the WAL to one
// snapshot line.
func (s *Session) compact() error {
	snap, err := trace.CaptureSnapshot(s.seq, s.eng.Network(), s.cfg.Strategies, s.stateAssignments(), s.metrics)
	if err != nil {
		return err
	}
	return s.wal.compact(snap)
}

// finish is the writer's exit path.
func (s *Session) finish(abort bool) error {
	err := s.err
	if s.wal != nil {
		if abort {
			s.wal.abort()
		} else {
			if err == nil && s.cfg.CompactEvery > 0 && s.wal.tail > 0 {
				err = s.compact()
			}
			if cerr := s.wal.close(); err == nil && cerr != nil {
				err = cerr
			}
		}
	}
	s.watchMu.Lock()
	ws := s.watchers
	s.watchers = nil
	s.obs.watchers.Set(0)
	s.watchMu.Unlock()
	for _, w := range ws {
		w.stop()
	}
	return err
}

func (s *Session) notify(d Delta) {
	s.watchMu.Lock()
	ws := append([]*watcher(nil), s.watchers...)
	s.watchMu.Unlock()
	delivered := false
	for _, w := range ws {
		if !w.deliver(d) {
			s.obs.watchDrops.Inc()
			s.watchMu.Lock()
			for i, x := range s.watchers {
				if x == w {
					s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
					break
				}
			}
			s.obs.watchers.Set(int64(len(s.watchers)))
			s.watchMu.Unlock()
		} else {
			delivered = true
		}
	}
	if delivered && s.obs.on {
		s.obs.tracer.Record(int64(d.Seq), obs.StageWatchDelivery)
	}
}

// stateAssignments returns the live assignments, aligned with
// cfg.Strategies (writer goroutine or pre-start only).
func (s *Session) stateAssignments() []toca.Assignment {
	out := make([]toca.Assignment, len(s.cfg.Strategies))
	for i, h := range s.hosted {
		out[i] = h.Assignment()
	}
	return out
}

func recodedByName(names []string, outs []strategy.Outcome) map[string]map[graph.NodeID]toca.Color {
	rec := make(map[string]map[graph.NodeID]toca.Color, len(names))
	for i, name := range names {
		m := make(map[graph.NodeID]toca.Color, len(outs[i].Recoded))
		for id, c := range outs[i].Recoded {
			m[id] = c
		}
		rec[name] = m
	}
	return rec
}
