package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
)

// sessionSpec is one single-session workload: a WAL-backed
// serve.Session fed by one open-loop writer at a fixed rate, then by a
// closed-loop burst, with an optional reader and Watch subscriber.
type sessionSpec struct {
	params     genParams
	rate       float64 // open-loop writer, events/s
	nominalEPS float64 // sizes the closed-loop burst: its events = nominalEPS × closedShare × trial time
	readRate   float64 // reads/s beside the writer (0: no reader)
	watch      bool    // one Watch subscriber consumes every delta
	cfg        serve.Config
}

const (
	// sessionTrials is the number of trials a session workload's run is
	// split into; each gets --seconds / sessionTrials.
	sessionTrials = 8
	// closedShare is the share of a trial the closed-loop burst takes at
	// nominal speed; the open-loop phase takes the rest.
	closedShare = 0.3
	sessionID   = "bench"
	// traceRing sizes the stage rings of an instrumented trial so they
	// keep every event's stages.
	traceRing = 1 << 18
)

var hosted = []string{"Minim", "CP"}

func runMobilityDense(ctx *runCtx) (*outcome, error) {
	return runSession(ctx, sessionSpec{
		params: denseParams(), rate: 800, nominalEPS: 3000, readRate: 200,
		cfg: serve.Config{Strategies: hosted},
	})
}

func runDurableSparse(ctx *runCtx) (*outcome, error) {
	return runSession(ctx, sessionSpec{
		params: sparseParams(), rate: 2000, nominalEPS: 7000, watch: true,
		cfg: serve.Config{Strategies: hosted, SyncEvery: 1, CompactEvery: 2000, WatchBuffer: 8192},
	})
}

// counts sizes one trial's open-loop and closed-loop phases.
func (sp sessionSpec) counts(seconds float64) (open, closed int) {
	t := seconds / sessionTrials
	return int(sp.rate * t * (1 - closedShare)), int(sp.nominalEPS * t * closedShare)
}

func runSession(ctx *runCtx, sp sessionSpec) (*outcome, error) {
	open, closed := sp.counts(ctx.seconds)
	plain, traced, err := runTrials(ctx, sessionTrials,
		func(k int) stream { return generate(subSeed(ctx.seed, k), sp.params, open+closed) },
		func(k int, st stream, dir string, instrumented bool) (trial, error) {
			return sessionTrial(ctx, sp, st, dir, instrumented, k < replayTrials)
		})
	if err != nil {
		return nil, err
	}
	out := summarize(plain, traced)
	if ctx.traced {
		out.metrics["attribution.gap_pct"] = ctx.spans.gapPct("client.write", "client.late", "serve.enqueue_to_apply", "serve.apply_to_ack")
	}
	return out, nil
}

// sessionTrial builds the starting state, runs the open-loop and
// closed-loop phases, checks the result, then crashes the session and
// times its recovery. An instrumented trial also reads the program's
// registry and stage ring and, when replay is set, replays its own event
// log.
func sessionTrial(ctx *runCtx, sp sessionSpec, st stream, dir string, instrumented, replay bool) (trial, error) {
	var t trial
	var reg *obs.Registry
	var hub *obs.TraceHub
	m := serve.NewManager(dir)
	if instrumented {
		reg, hub = obs.NewRegistry(), obs.NewTraceHub(traceRing)
		m.Instrument(serve.NewMetrics(reg, hub))
	}
	defer m.Abort()
	t0 := time.Now()
	s, err := m.Create(sessionID, sp.cfg)
	if err != nil {
		return t, err
	}
	for i, ev := range st.Base {
		if err := s.Apply(ev); err != nil {
			return t, fmt.Errorf("base event %d: %w", i, err)
		}
	}
	t.setupS = time.Since(t0).Seconds()
	counters0 := serveCounters(reg)
	base0 := viewRecodings(s.View())

	open, closed := sp.counts(ctx.seconds)
	nBase := len(st.Base)
	interval := time.Duration(float64(time.Second) / sp.rate)
	start := time.Now().Add(5 * time.Millisecond)
	due := func(seq int) time.Time { return start.Add(time.Duration(seq-nBase-1) * interval) }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readUs, viewReadNs, watchMs []float64
	if sp.readRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readUs, viewReadNs = read(s, sp.params.N, time.Duration(float64(time.Second)/sp.readRate), stop, st.seed)
		}()
	}
	watchMiss := 0
	cancelWatch := func() {}
	if sp.watch {
		ch, cancel := s.Watch()
		cancelWatch = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range ch {
				if d.Seq > nBase && d.Seq <= nBase+open {
					watchMs = append(watchMs, float64(time.Since(due(d.Seq)).Nanoseconds())/1e6)
				}
			}
			watchMiss = open - len(watchMs)
		}()
	}

	var applied []strategy.Event
	var writeMs, lateMs []float64
	var dueNs, ackNs, sentNs []int64
	for i, ev := range st.Events[:open] {
		d := due(nBase + 1 + i)
		waitUntil(d)
		sent := time.Now()
		err := s.Apply(ev)
		ack := time.Now()
		t.attempted++
		if err != nil {
			t.failed++
			continue
		}
		applied = append(applied, ev)
		writeMs = append(writeMs, float64(ack.Sub(d).Nanoseconds())/1e6)
		lateMs = append(lateMs, float64(sent.Sub(d).Nanoseconds())/1e6)
		if instrumented {
			dueNs, sentNs, ackNs = append(dueNs, d.UnixNano()), append(sentNs, sent.UnixNano()), append(ackNs, ack.UnixNano())
		}
	}
	close(stop)
	cpu0, c0 := cpuTime(), time.Now()
	for _, ev := range st.Events[open:] {
		t.attempted++
		if err := s.Apply(ev); err != nil {
			t.failed++
			continue
		}
		applied = append(applied, ev)
	}
	t.eps = float64(closed) / time.Since(c0).Seconds()
	t.cpuUsPerEvent = float64((cpuTime() - cpu0).Microseconds()) / float64(closed)
	cancelWatch()
	wg.Wait()
	t.p50Ms, t.p90Ms = median(writeMs), quantile(writeMs, 0.9)
	t.attempted += int64(len(readUs))
	if sp.watch {
		t.attempted += int64(open)
		t.failed += int64(watchMiss)
	}

	if err := s.Barrier(); err != nil {
		return t, err
	}
	v := s.View()
	if v.Seq() != nBase+len(applied) {
		return t, fmt.Errorf("view at seq %d after %d events", v.Seq(), nBase+len(applied))
	}
	final, err := checkView(v)
	if err != nil {
		return t, err
	}
	t.recodings, t.events = viewRecodings(v)-base0, len(applied)
	for _, name := range hosted {
		mt, _ := v.MetricsOf(name)
		t.code += float64(mt.MaxColor)
	}
	counters := subtractCounters(serveCounters(reg), counters0)

	// Crash, then recover from the WAL: the recovered view must equal the
	// view before the crash.
	walDir, err := m.WALDir(sessionID)
	if err != nil {
		return t, err
	}
	m.Abort()
	var wal []byte
	if instrumented {
		if wal, err = readWAL(walDir); err != nil {
			return t, err
		}
	}
	m2 := serve.NewManager(dir)
	r0 := time.Now()
	s2, err := m2.Open(sessionID, sp.cfg)
	recoverS := time.Since(r0).Seconds()
	if err != nil {
		return t, fmt.Errorf("recovery: %w", err)
	}
	defer m2.Abort()
	rv := s2.View()
	if rv.Seq() != v.Seq() {
		return t, fmt.Errorf("recovered seq %d, crashed at %d", rv.Seq(), v.Seq())
	}
	for _, name := range hosted {
		if a, _ := rv.Assignment(name); !reflect.DeepEqual(a, final[name]) {
			return t, fmt.Errorf("%s: recovered assignment differs from the view before the crash", name)
		}
	}

	t.extras = map[string]float64{
		"write_p50_ms": t.p50Ms, "write_p90_ms": t.p90Ms, "write_p99_ms": quantile(writeMs, 0.99), "write_eps_max": t.eps,
		"read_p50_us": median(readUs), "watch_p50_ms": median(watchMs), "recover_s": recoverS,
		"late_p50_ms": median(lateMs), "late_p99_ms": quantile(lateMs, 0.99),
	}
	if !instrumented {
		return t, nil
	}

	l := map[string]float64{"serve.view_read_ns": mean(viewReadNs)}
	t.layers = l
	if err := serveLayers(reg, counters, l); err != nil {
		return t, err
	}
	stages := stageTimes(hub.Tracer(sessionID).Entries(int64(nBase + 1)))
	var wait []float64 // enqueue→apply, µs
	for i := range dueNs {
		seq := int64(nBase + 1 + i)
		root := ctx.spans.add("client.write", seq, dueNs[i], ackNs[i], -1)
		ctx.spans.add("client.late", seq, dueNs[i], sentNs[i], root)
		if enq, app := stages[seq][obs.StageEnqueue], stages[seq][obs.StageApply]; enq > 0 && app > 0 {
			ctx.spans.add("serve.enqueue_to_apply", seq, enq, app, root)
			ctx.spans.add("serve.apply_to_ack", seq, app, ackNs[i], root)
			wait = append(wait, float64(app-enq)/1e3)
		}
	}
	// The ring stamps apply when the apply ends, so the mailbox wait is
	// enqueue→apply less the apply itself.
	l["serve.mailbox_wait_us"] = mean(wait) - l["serve.apply_us"]
	var deliver []float64
	for seq, st := range stages {
		if pub, got := st[obs.StageViewPublish], st[obs.StageWatchDelivery]; pub > 0 && got > 0 {
			ctx.spans.add("serve.watch_delivery", seq, pub, got, -1)
			deliver = append(deliver, float64(got-pub)/1e3)
		}
	}
	l["serve.watch_delivery_us"] = mean(deliver)
	if !replay {
		return t, nil
	}
	return t, replayLayers(st.Base, applied, final, wal, l)
}

// replayLayers replays a trial's own event log through engine.Step and
// each hosted strategy's OnDelta, requires the session's final
// assignments to be bit-identical to the replay's, and fills the engine,
// strategy and trace layers, the WAL's recovery tail, and the view
// publication share of an apply.
func replayLayers(base, applied []strategy.Event, final map[string]toca.Assignment, wal []byte, l map[string]float64) error {
	sh, err := replayShadow(hosted, base, applied, l)
	if err != nil {
		return err
	}
	if err := sh.matches(final); err != nil {
		return err
	}
	log, err := measureEncode(concat(base, applied), l)
	if err != nil {
		return err
	}
	if err := measureDecode(log, l); err != nil {
		return err
	}
	recs, _, err := trace.ReadRecords(bytes.NewReader(wal))
	if err != nil {
		return fmt.Errorf("reading the WAL: %w", err)
	}
	l["serve.recover_tail_events"] = float64(tailEvents(recs))
	l["serve.view_publish_us"] = l["serve.apply_us"] - l["engine.step_us"] - l["core.recode_us"] - l["cp.recode_us"] - l["trace.encode_ns"]/1e3
	return nil
}

// read issues one View + ColorOf + ConflictNeighbors read on a random
// base node (base nodes never leave) at a fixed rate until stop closes,
// and returns each read's time (µs) and its View call's time (ns).
func read(s *serve.Session, n int, every time.Duration, stop <-chan struct{}, seed uint64) (readUs, viewNs []float64) {
	rng := rand.New(rand.NewPCG(seed, 1))
	next := time.Now()
	for {
		select {
		case <-stop:
			return readUs, viewNs
		default:
		}
		next = next.Add(every)
		id := graph.NodeID(rng.IntN(n))
		t0 := time.Now()
		v := s.View()
		t1 := time.Now()
		v.ColorOf("Minim", id)
		v.ConflictNeighbors(id)
		t2 := time.Now()
		viewNs = append(viewNs, float64(t1.Sub(t0).Nanoseconds()))
		readUs = append(readUs, float64(t2.Sub(t0).Nanoseconds())/1e3)
		time.Sleep(time.Until(next))
	}
}

// serveCounterNames are the serve-layer counters the traced run reads.
var serveCounterNames = []string{
	"serve_events_applied_total", "serve_backpressure_total", "serve_wal_appended_bytes_total",
	"serve_wal_fsyncs_total", "serve_wal_compactions_total",
}

func serveCounters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	if reg == nil {
		return out
	}
	for _, name := range serveCounterNames {
		out[name] = reg.Counter(name, "", "session", sessionID).Value()
	}
	return out
}

func subtractCounters(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// histMeanUs is the mean of one of the session's latency histograms, in
// µs. The histograms' buckets are too coarse for a useful median.
func histMeanUs(reg *obs.Registry, name string) float64 {
	h := reg.Histogram(name, "", nil, "session", sessionID)
	return h.Sum() / float64(h.Count()) * 1e6
}

// serveLayers fills the serve per-layer metrics from an instrumented
// trial's registry and its counters' growth over the measured phases.
func serveLayers(reg *obs.Registry, c map[string]int64, l map[string]float64) error {
	events := float64(c["serve_events_applied_total"])
	if events == 0 {
		return fmt.Errorf("instrumented trial recorded no applied events")
	}
	l["serve.apply_us"] = histMeanUs(reg, "serve_apply_seconds")
	l["serve.fsync_us"] = histMeanUs(reg, "serve_fsync_seconds")
	l["serve.fsyncs_per_event"] = float64(c["serve_wal_fsyncs_total"]) / events
	l["serve.wal_bytes_per_event"] = float64(c["serve_wal_appended_bytes_total"]) / events
	l["serve.compactions"] = float64(c["serve_wal_compactions_total"])
	l["serve.backpressure_per_kevent"] = 1000 * float64(c["serve_backpressure_total"]) / events
	return nil
}

// stageTimes indexes a trace ring's entries by seq and stage (unix ns).
func stageTimes(entries []obs.TraceEntry) map[int64]map[obs.TraceStage]int64 {
	out := make(map[int64]map[obs.TraceStage]int64)
	for _, e := range entries {
		stage, ok := obs.ParseStage(e.Stage)
		if !ok {
			continue
		}
		if out[e.Seq] == nil {
			out[e.Seq] = make(map[obs.TraceStage]int64)
		}
		out[e.Seq][stage] = e.At
	}
	return out
}

// viewRecodings sums the hosted strategies' cumulative recodings.
func viewRecodings(v *serve.View) int {
	total := 0
	for _, name := range v.Strategies() {
		mt, _ := v.MetricsOf(name)
		total += mt.TotalRecodings
	}
	return total
}

// waitUntil sleeps until shortly before t, then yields until t, so the
// open-loop schedule is kept to within a few microseconds: a sleep alone
// wakes up to a millisecond late, which would count as latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
