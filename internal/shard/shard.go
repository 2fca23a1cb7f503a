// Package shard is the region-partitioned parallel runtime: it splits
// the arena into a grid of regions, hosts one engine.Engine (plus
// per-strategy subscribers) per region on a worker goroutine, routes
// each event to its owning shard by position, and escalates events whose
// interference ball crosses a region border to a serialized border lane,
// so that a sharded run is bit-identical to a single-engine run.
//
// # Routing rule: the locality certificate
//
// The routing rule is the paper's locality result (Thm 4.1.10: new
// nodes may join simultaneously when any two are at least 5 hops
// apart) restated geometrically, for every event kind. Let r bound
// every transmission range the event involves: the mirror's monotone
// maximum range, folded with the event's own range. A local strategy's
// event at position p
//
//   - recolors only the event node and its neighbors in either
//     direction (V1 = 1n ∪ 2n ∪ {n}), all within r of p;
//   - reads the colors of those nodes' conflict neighbors: their out-
//     and in-neighbors, within 2r of p, and the other transmitters into
//     their out-neighbors, within 3r of p. A joiner's own constraints
//     lie within its range plus r, which is at most 2r.
//
// So an event reads colors only within 3r of p and recolors only nodes
// within r of p. If the ball of radius 3r around p lies inside p's
// region, the event is interior: every node it reads or writes lives in
// that region, so it runs on that region's shard concurrently with the
// interior events of other shards, whose read/write sets live in other
// regions. Otherwise it is a border event. escRadius states the radius
// and classify applies it per event kind.
//
// # Shard state
//
// Each shard's engine owns a private adhoc.Network holding exactly the
// nodes whose current position is in its region. Because the network
// derives edges from member configurations, every shard digraph is the
// exact restriction of the global digraph to its region — interior
// events therefore decode (partition, conflict sets) identically to a
// single-engine run. Each shard engine's append-only log is the shard's
// event log; the mirror's log is the run's total order.
//
// # Border lane
//
// The coordinator keeps a global mirror engine current for every event
// (topology only — a serial cost that is small next to recoding). A
// border event first drains every shard worker (barrier), folds the
// shards' buffered recodings into the per-strategy global assignments,
// then executes on the mirror via border-hosted strategy instances whose
// assignments are those global maps. Its topology change and recodings
// are written back into the owning shards. Joins landing exactly on a
// region border are border events by construction (the ball cannot fit).
//
// # Determinism
//
// Interior events commute across shards (disjoint read/write sets), are
// totally ordered within a shard (the worker preserves dispatch order),
// and border events are totally ordered against everything. The final
// state is therefore the sequential semantics of the input order, and
// the mirror log alone reconstructs a run: routing, shard logs and the
// final state are pure functions of it.
//
// # Centralized strategies
//
// Strategies whose recoding is not interference-local (BBB recolors the
// whole conflict graph every event) cannot be region-partitioned. They
// run on a dedicated global lane: a full-replica engine fed every event
// in order on its own worker, pipelined alongside the region shards and
// still bit-identical to the single-engine run.
package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// Config fixes a coordinator's region grid over the arena.
type Config struct {
	GridX, GridY   int     // number of regions per axis (>= 1)
	ArenaW, ArenaH float64 // arena extent; regions are ArenaW/GridX x ArenaH/GridY
	// Validate re-verifies every hosted strategy's CA1/CA2 validity on
	// the global state at every barrier and phase mark (slow; tests).
	Validate bool
	// QueueLen is the per-shard dispatch queue capacity (default 256).
	QueueLen int
}

func (c Config) check() error {
	if c.GridX < 1 || c.GridY < 1 {
		return fmt.Errorf("shard: grid %dx%d invalid", c.GridX, c.GridY)
	}
	if !(c.ArenaW > 0) || !(c.ArenaH > 0) {
		return fmt.Errorf("shard: arena %gx%g invalid", c.ArenaW, c.ArenaH)
	}
	return nil
}

// Shards returns the number of region shards.
func (c Config) Shards() int { return c.GridX * c.GridY }

// Stats summarizes a run's routing behavior.
type Stats struct {
	Interior int   // events executed on region shards
	Border   int   // events escalated to the border lane
	Barriers int   // barrier drains performed
	PerShard []int // interior events per region shard
}

// laneOutcome is one interior event's buffered result, folded into the
// global assignments at the next barrier.
type laneOutcome struct {
	kind strategy.EventKind
	id   graph.NodeID
	outs []strategy.Outcome // aligned with the lane's subscribers
}

// lane is one worker-driven engine: a region shard or the global lane.
type lane struct {
	eng  *engine.Engine
	subs []sim.Hosted
	// metrics accumulates per-subscriber outcome totals for events this
	// lane executed.
	metrics []*strategy.Metrics
	tasks   chan strategy.Event
	pending sync.WaitGroup
	// Worker-owned between barriers; coordinator reads after a drain.
	outcomes []laneOutcome
	buffer   bool // region shards buffer outcomes for folding; the global lane does not
	err      error
}

func newLane(eng *engine.Engine, subs []sim.Hosted, queue int, buffer bool) *lane {
	l := &lane{
		eng:     eng,
		subs:    subs,
		metrics: make([]*strategy.Metrics, len(subs)),
		tasks:   make(chan strategy.Event, queue),
		buffer:  buffer,
	}
	for i := range subs {
		l.metrics[i] = strategy.NewMetrics()
		eng.Subscribe(subs[i])
	}
	go l.run()
	return l
}

// run is the worker loop. After the first error the lane keeps draining
// (so barriers never deadlock) but performs no further work.
func (l *lane) run() {
	for ev := range l.tasks {
		if l.err == nil {
			l.exec(ev)
		}
		l.pending.Done()
	}
}

func (l *lane) exec(ev strategy.Event) {
	outs, err := l.eng.Apply(ev)
	if err != nil {
		l.err = err
		return
	}
	for i := range l.subs {
		l.metrics[i].Record(ev.Kind, outs[i])
	}
	if l.buffer {
		// Apply reuses its result slice: keep a copy.
		l.outcomes = append(l.outcomes, laneOutcome{kind: ev.Kind, id: ev.ID, outs: slices.Clone(outs)})
	}
}

// dispatch hands one event to the lane's worker.
func (l *lane) dispatch(ev strategy.Event) {
	l.pending.Add(1)
	l.tasks <- ev
}

// Coordinator runs event scripts across region shards plus a border
// lane, preserving sequential semantics. It is not safe for concurrent
// use; one goroutine drives it.
type Coordinator struct {
	cfg   Config
	names []sim.StrategyName

	// mirror is the global reference engine: every event is applied to
	// it in dispatch order (topology only for interior events), so its
	// network answers routing queries and its log is the total order.
	// The border-hosted local strategy instances are its subscribers.
	mirror     *engine.Engine
	borderSubs []sim.Hosted        // aligned with localIdx
	borderM    []*strategy.Metrics // aligned with localIdx

	shards []*lane // region shards, row-major (ix*GridY + iy)
	global *lane   // nil when every spec is Local

	localIdx  []int // spec index per border/shard subscriber slot
	globalIdx []int // spec index per global-lane subscriber slot

	phases     []int // mirror log offsets at Mark calls
	borderSeqs []int // mirror log offsets of border-lane events
	stats      Stats
	failed     error
}

// New starts a coordinator hosting the named strategies, with one worker
// per region shard (plus a global lane when a non-local strategy is
// named). Callers must Close it.
func New(cfg Config, names []sim.StrategyName) (*Coordinator, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: no strategies")
	}
	specs := make([]sim.Spec, len(names))
	for i, name := range names {
		var err error
		if specs[i], err = sim.SpecOf(name); err != nil {
			return nil, err
		}
	}
	c := &Coordinator{cfg: cfg, names: names, mirror: engine.New()}
	c.stats.PerShard = make([]int, cfg.Shards())
	for i, s := range specs {
		if s.Local {
			c.localIdx = append(c.localIdx, i)
		} else {
			c.globalIdx = append(c.globalIdx, i)
		}
	}
	// Border lane: local-strategy instances over the mirror network,
	// owning the authoritative global assignments.
	for range c.localIdx {
		c.borderM = append(c.borderM, strategy.NewMetrics())
	}
	for _, si := range c.localIdx {
		sub := specs[si].New(c.mirror.Network(), nil)
		c.borderSubs = append(c.borderSubs, sub)
		c.mirror.Subscribe(sub)
	}
	// Region shards: private networks restricted to their regions.
	for s := 0; s < cfg.Shards(); s++ {
		eng := engine.New()
		subs := make([]sim.Hosted, 0, len(c.localIdx))
		for _, si := range c.localIdx {
			subs = append(subs, specs[si].New(eng.Network(), nil))
		}
		c.shards = append(c.shards, newLane(eng, subs, cfg.QueueLen, true))
	}
	// Global lane for centralized strategies: full replica, every event.
	if len(c.globalIdx) > 0 {
		eng := engine.New()
		subs := make([]sim.Hosted, 0, len(c.globalIdx))
		for _, si := range c.globalIdx {
			subs = append(subs, specs[si].New(eng.Network(), nil))
		}
		c.global = newLane(eng, subs, cfg.QueueLen, false)
	}
	return c, nil
}

// Close drains every lane and stops the workers. The coordinator is
// unusable afterwards; the first worker error (if any) is returned.
func (c *Coordinator) Close() error {
	err := c.sync()
	for _, l := range c.shards {
		close(l.tasks)
	}
	if c.global != nil {
		close(c.global.tasks)
	}
	c.shards, c.global = nil, nil
	return err
}

// ---- Region geometry ----

// regionOf returns the shard index owning position p. Positions outside
// the arena clamp to the edge regions (whose outer half-planes are
// unbounded, so border classification never falsely passes there).
func (c *Coordinator) regionOf(p geom.Point) int {
	ix := int(math.Floor(p.X / (c.cfg.ArenaW / float64(c.cfg.GridX))))
	iy := int(math.Floor(p.Y / (c.cfg.ArenaH / float64(c.cfg.GridY))))
	if ix < 0 {
		ix = 0
	}
	if ix >= c.cfg.GridX {
		ix = c.cfg.GridX - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= c.cfg.GridY {
		iy = c.cfg.GridY - 1
	}
	return ix*c.cfg.GridY + iy
}

// ballInRegion reports whether the closed disk of radius r around p lies
// inside shard s's region. Edge regions extend to infinity outward: only
// internal borders separate shards. Boundary semantics follow regionOf's
// Floor: a node exactly on a border line belongs to the higher region,
// so on the high side a ball that merely touches the line must escalate
// (Covers is inclusive, so a node on the line is inside the closed
// ball), while on the low side exact contact is still interior (every
// lower-region node is strictly below the line, hence strictly outside
// the ball).
func (c *Coordinator) ballInRegion(p geom.Point, r float64, s int) bool {
	ix, iy := s/c.cfg.GridY, s%c.cfg.GridY
	w, h := c.cfg.ArenaW/float64(c.cfg.GridX), c.cfg.ArenaH/float64(c.cfg.GridY)
	if ix > 0 && p.X-r < float64(ix)*w {
		return false
	}
	if ix < c.cfg.GridX-1 && p.X+r >= float64(ix+1)*w {
		return false
	}
	if iy > 0 && p.Y-r < float64(iy)*h {
		return false
	}
	if iy < c.cfg.GridY-1 && p.Y+r >= float64(iy+1)*h {
		return false
	}
	return true
}

// ---- Classification ----

// escRadius is the certificate's radius for an event with range bound
// r (see the package doc): it recolors only its neighbors, within r;
// their conflict neighbors, whose colors it reads, are their out- and
// in-neighbors, within 2r, and the co-transmitters into those
// out-neighbors, within 3r. A ball of this radius inside one region
// keeps every read and write of the event in that region.
func escRadius(r float64) float64 { return 3 * r }

// classify routes one event: (shard, true) for an interior event, or
// (-1, false) for a border event. It reads the mirror's pre-event state.
// Malformed events (unknown node, duplicate join) classify as border so
// the mirror reproduces the exact single-engine error.
func (c *Coordinator) classify(ev strategy.Event) (int, bool) {
	net := c.mirror.Network()
	rmax := net.MaxRange()
	switch ev.Kind {
	case strategy.Join:
		if net.Has(ev.ID) {
			return -1, false
		}
		r := math.Max(rmax, ev.Cfg.Range)
		s := c.regionOf(ev.Cfg.Pos)
		if c.ballInRegion(ev.Cfg.Pos, escRadius(r), s) {
			return s, true
		}
	case strategy.Leave:
		// Leaves read no colors and recode nobody under local
		// strategies, and each shard network's edge set is an exact
		// restriction, so a leave is always interior to its owner.
		cfg, ok := net.Config(ev.ID)
		if !ok {
			return -1, false
		}
		return c.regionOf(cfg.Pos), true
	case strategy.Move:
		cfg, ok := net.Config(ev.ID)
		if !ok {
			return -1, false
		}
		oldS, newS := c.regionOf(cfg.Pos), c.regionOf(ev.Pos)
		if oldS != newS {
			return -1, false
		}
		// Move recoding is destination-local (the join-style recoding at
		// the new position); the old-position edge flips stay inside the
		// shard restriction automatically.
		if c.ballInRegion(ev.Pos, escRadius(rmax), newS) {
			return newS, true
		}
	case strategy.PowerChange:
		cfg, ok := net.Config(ev.ID)
		if !ok {
			return -1, false
		}
		r := rmax
		if ev.R > r && !math.IsNaN(ev.R) && !math.IsInf(ev.R, 0) {
			r = ev.R
		}
		s := c.regionOf(cfg.Pos)
		if c.ballInRegion(cfg.Pos, escRadius(r), s) {
			return s, true
		}
	}
	return -1, false
}

// ---- Execution ----

// Apply runs one phase of events, fanning interior events out to shard
// workers and serializing border events. On error the run is poisoned:
// the error is returned now and from every later call.
func (c *Coordinator) Apply(events []strategy.Event) error {
	for i, ev := range events {
		if c.failed != nil {
			return c.failed
		}
		if err := c.step(ev); err != nil {
			c.fail(fmt.Errorf("shard: event %d: %w", i, err))
			return c.failed
		}
	}
	return c.failed
}

func (c *Coordinator) step(ev strategy.Event) error {
	if c.global != nil {
		c.global.dispatch(ev)
	}
	s, interior := c.classify(ev)
	if interior {
		// Keep the mirror current (topology only; border subscribers
		// are acknowledged — their assignments are folded at barriers).
		if err := c.mirror.CommitTopology(ev, len(c.borderSubs)); err != nil {
			return err
		}
		c.stats.Interior++
		c.stats.PerShard[s]++
		c.shards[s].dispatch(ev)
		return nil
	}
	return c.applyBorder(ev)
}

// barrier waits for every region shard worker to drain, surfacing the
// first worker error.
func (c *Coordinator) barrier() error {
	c.stats.Barriers++
	for _, l := range c.shards {
		l.pending.Wait()
	}
	for i, l := range c.shards {
		if l.err != nil {
			return fmt.Errorf("shard %d: %w", i, l.err)
		}
	}
	return nil
}

// fold replays every buffered interior outcome into the global
// assignments (the border instances' maps). Outcomes of different shards
// touch disjoint nodes, so only the per-shard order matters.
func (c *Coordinator) fold() {
	for _, l := range c.shards {
		for _, o := range l.outcomes {
			for i := range c.borderSubs {
				if o.kind == strategy.Leave {
					c.borderSubs[i].SetColor(o.id, toca.None)
				}
				for id, col := range o.outs[i].Recoded {
					c.borderSubs[i].SetColor(id, col)
				}
			}
		}
		l.outcomes = l.outcomes[:0]
	}
}

// applyBorder executes one border event: barrier, fold, serialized run
// on the mirror, then topology and assignment writebacks to the owning
// shards.
func (c *Coordinator) applyBorder(ev strategy.Event) error {
	if err := c.barrier(); err != nil {
		return err
	}
	c.fold()
	if c.cfg.Validate {
		if err := c.validateLocal(); err != nil {
			return err
		}
	}
	net := c.mirror.Network()

	// Pre-state facts consumed by the writebacks.
	var prevCfg adhoc.Config
	var hadPrev bool
	if ev.Kind != strategy.Join {
		prevCfg, hadPrev = net.Config(ev.ID)
	}

	c.borderSeqs = append(c.borderSeqs, c.mirror.Seq())
	c.stats.Border++
	outs, err := c.mirror.Apply(ev)
	if err != nil {
		return err
	}
	for i := range c.borderSubs {
		c.borderM[i].Record(ev.Kind, outs[i])
	}

	// Topology writeback: route the physical change to the owning
	// shard networks, bypassing their subscribers (the border outcome
	// is installed below).
	ack := func(l *lane, e strategy.Event) error {
		return l.eng.CommitTopology(e, len(l.subs))
	}
	switch ev.Kind {
	case strategy.Join:
		if err := ack(c.shards[c.regionOf(ev.Cfg.Pos)], ev); err != nil {
			return err
		}
	case strategy.Leave:
		if !hadPrev {
			return fmt.Errorf("shard: leave of unknown node %d survived the mirror", ev.ID)
		}
		if err := ack(c.shards[c.regionOf(prevCfg.Pos)], ev); err != nil {
			return err
		}
	case strategy.PowerChange:
		if !hadPrev {
			return fmt.Errorf("shard: power change of unknown node %d survived the mirror", ev.ID)
		}
		if err := ack(c.shards[c.regionOf(prevCfg.Pos)], ev); err != nil {
			return err
		}
	case strategy.Move:
		if !hadPrev {
			return fmt.Errorf("shard: move of unknown node %d survived the mirror", ev.ID)
		}
		oldS, newS := c.regionOf(prevCfg.Pos), c.regionOf(ev.Pos)
		if oldS == newS {
			if err := ack(c.shards[oldS], ev); err != nil {
				return err
			}
		} else {
			// Ownership transfer: the node leaves its old shard's
			// sub-network and joins the new one's.
			if err := ack(c.shards[oldS], strategy.LeaveEvent(ev.ID)); err != nil {
				return err
			}
			join := strategy.JoinEvent(ev.ID, adhoc.Config{Pos: ev.Pos, Range: prevCfg.Range})
			if err := ack(c.shards[newS], join); err != nil {
				return err
			}
		}
	}

	// Assignment writeback: install the border recodings into the
	// owning shards' instances, and migrate entries on ownership
	// changes. Owners are read from the mirror's post-event state.
	for i := range c.borderSubs {
		for id, col := range outs[i].Recoded {
			cfg, ok := net.Config(id)
			if !ok {
				return fmt.Errorf("shard: recoded node %d absent from mirror", id)
			}
			c.shards[c.regionOf(cfg.Pos)].subs[i].SetColor(id, col)
		}
		switch ev.Kind {
		case strategy.Leave:
			c.shards[c.regionOf(prevCfg.Pos)].subs[i].SetColor(ev.ID, toca.None)
		case strategy.Move:
			oldS, newS := c.regionOf(prevCfg.Pos), c.regionOf(ev.Pos)
			if oldS != newS {
				c.shards[oldS].subs[i].SetColor(ev.ID, toca.None)
				if col, ok := c.borderSubs[i].Assignment()[ev.ID]; ok {
					c.shards[newS].subs[i].SetColor(ev.ID, col)
				}
			}
		}
	}
	return nil
}

// sync drains every lane (including the global one) and folds, bringing
// the border instances' global assignments fully up to date.
func (c *Coordinator) sync() error {
	if c.shards == nil {
		return c.failed
	}
	if err := c.barrier(); err != nil {
		c.fail(err)
		return c.failed
	}
	if c.global != nil {
		c.global.pending.Wait()
		if c.global.err != nil {
			c.fail(fmt.Errorf("global lane: %w", c.global.err))
			return c.failed
		}
	}
	c.fold()
	return c.failed
}

func (c *Coordinator) fail(err error) {
	if c.failed == nil {
		c.failed = err
	}
}

// validateLocal re-checks CA1/CA2 for the local strategies' folded
// global assignments on the mirror graph. Safe at any barrier (the
// region shards are drained; the global lane may still be running).
func (c *Coordinator) validateLocal() error {
	g := c.mirror.Network().Graph()
	for i, si := range c.localIdx {
		if vs := toca.Verify(g, c.borderSubs[i].Assignment()); len(vs) > 0 {
			return fmt.Errorf("shard: %s: %d violations, first: %v", c.names[si], len(vs), vs[0])
		}
	}
	return nil
}

// validateGlobal re-checks the global lane's strategies on its own
// replica. Only safe after sync (the lane's worker must be drained).
func (c *Coordinator) validateGlobal() error {
	if c.global == nil {
		return nil
	}
	gg := c.global.eng.Network().Graph()
	for i, si := range c.globalIdx {
		if vs := toca.Verify(gg, c.global.subs[i].Assignment()); len(vs) > 0 {
			return fmt.Errorf("shard: %s: %d violations, first: %v", c.names[si], len(vs), vs[0])
		}
	}
	return nil
}

// ---- Observation ----

// Mark drains the run, records the current mirror log position as a
// phase boundary, and returns its index.
func (c *Coordinator) Mark() (int, error) {
	if err := c.sync(); err != nil {
		return 0, err
	}
	if c.cfg.Validate {
		if err := c.validateLocal(); err != nil {
			c.fail(err)
			return 0, err
		}
		if err := c.validateGlobal(); err != nil {
			c.fail(err)
			return 0, err
		}
	}
	c.phases = append(c.phases, c.mirror.Seq())
	return len(c.phases) - 1, nil
}

// Phases returns the marked phase boundaries as mirror log offsets.
func (c *Coordinator) Phases() []int { return append([]int(nil), c.phases...) }

// Log returns the run's total order: every event in execution order.
func (c *Coordinator) Log() []strategy.Event { return c.mirror.Log() }

// BorderSeqs returns the log positions executed on the border lane.
func (c *Coordinator) BorderSeqs() []int { return append([]int(nil), c.borderSeqs...) }

// Stats returns routing statistics.
func (c *Coordinator) Stats() Stats {
	s := c.stats
	s.PerShard = append([]int(nil), c.stats.PerShard...)
	return s
}

// ShardLogs returns each region shard's append-only event log (border
// topology writebacks included, as the synthesized events the shard's
// network actually executed).
func (c *Coordinator) ShardLogs() ([][]strategy.Event, error) {
	if err := c.sync(); err != nil {
		return nil, err
	}
	out := make([][]strategy.Event, len(c.shards))
	for i, l := range c.shards {
		out[i] = l.eng.Log()
	}
	return out, nil
}

// Network drains the run and returns the global topology (the mirror's
// network). Callers must treat it as read-only.
func (c *Coordinator) Network() (*adhoc.Network, error) {
	if err := c.sync(); err != nil {
		return nil, err
	}
	return c.mirror.Network(), nil
}

// AssignmentOf drains the run and returns the named strategy's global
// code assignment (the live map for local strategies; callers must not
// mutate it).
func (c *Coordinator) AssignmentOf(name sim.StrategyName) (toca.Assignment, bool, error) {
	if err := c.sync(); err != nil {
		return nil, false, err
	}
	for i, si := range c.localIdx {
		if c.names[si] == name {
			return c.borderSubs[i].Assignment(), true, nil
		}
	}
	if c.global != nil {
		for i, si := range c.globalIdx {
			if c.names[si] == name {
				return c.global.subs[i].Assignment(), true, nil
			}
		}
	}
	return nil, false, nil
}

// SnapshotOf drains the run and reports the named strategy's cumulative
// global metrics, matching a single-engine session's snapshot.
func (c *Coordinator) SnapshotOf(name sim.StrategyName) (sim.Snapshot, bool, error) {
	if err := c.sync(); err != nil {
		return sim.Snapshot{}, false, err
	}
	nodes := c.mirror.Network().Size()
	for i, si := range c.localIdx {
		if c.names[si] != name {
			continue
		}
		total := c.borderM[i].TotalRecodings
		for _, l := range c.shards {
			total += l.metrics[i].TotalRecodings
		}
		return sim.Snapshot{
			TotalRecodings: total,
			MaxColor:       c.borderSubs[i].Assignment().MaxColor(),
			Nodes:          nodes,
		}, true, nil
	}
	if c.global != nil {
		for i, si := range c.globalIdx {
			if c.names[si] != name {
				continue
			}
			return sim.Snapshot{
				TotalRecodings: c.global.metrics[i].TotalRecodings,
				MaxColor:       c.global.subs[i].Assignment().MaxColor(),
				Nodes:          nodes,
			}, true, nil
		}
	}
	return sim.Snapshot{}, false, nil
}

// CheckConsistency drains the run and verifies the sharding invariants:
// every shard network indexes exactly the mirror nodes of its region,
// each shard digraph is the exact restriction of the mirror digraph, and
// every network passes its own consistency check. Intended for tests
// and the verify tool.
func (c *Coordinator) CheckConsistency() error {
	net, err := c.Network()
	if err != nil {
		return err
	}
	counts := make([]int, len(c.shards))
	for _, id := range net.Nodes() {
		cfg, _ := net.Config(id)
		s := c.regionOf(cfg.Pos)
		counts[s]++
		sn := c.shards[s].eng.Network()
		scfg, ok := sn.Config(id)
		if !ok {
			return fmt.Errorf("shard: node %d missing from owning shard %d", id, s)
		}
		if scfg != cfg {
			return fmt.Errorf("shard: node %d config %+v in shard %d, %+v in mirror", id, scfg, s, cfg)
		}
	}
	for s, l := range c.shards {
		sn := l.eng.Network()
		if sn.Size() != counts[s] {
			return fmt.Errorf("shard %d: %d nodes, region holds %d", s, sn.Size(), counts[s])
		}
		if err := sn.CheckConsistency(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		for _, u := range sn.Nodes() {
			for _, v := range sn.Graph().OutNeighbors(u) {
				if !net.Graph().HasEdge(u, v) {
					return fmt.Errorf("shard %d: edge %d->%d absent from mirror", s, u, v)
				}
			}
		}
	}
	if err := net.CheckConsistency(); err != nil {
		return fmt.Errorf("shard: mirror: %w", err)
	}
	return nil
}
