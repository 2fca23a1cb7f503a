package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// The replicated workload: three in-process cluster.Nodes on loopback,
// R=2, one Minim+CP session. One client POSTs batches of batchSize
// events to the primary, then drives ShipSession until every follower
// has acknowledged the batch (closed loop). Node.Run is not started:
// gossip ticks and reconciles run every tickEvery batches, so every run
// sends the same traffic.
const (
	members      = 3
	batchSize    = 8
	tickEvery    = 16
	nominalBatch = 300.0 // batches/s that size a run: batches = nominalBatch × seconds
	// clusterTrials is the number of trials (each a fresh cluster) a run
	// is split into.
	clusterTrials = 8
)

func runReplicatedSparse(ctx *runCtx) (*outcome, error) {
	batches := int(nominalBatch * ctx.seconds / clusterTrials)
	plain, traced, err := runTrials(ctx, clusterTrials,
		func(k int) stream { return generate(subSeed(ctx.seed, k), sparseParams(), batches*batchSize) },
		func(k int, st stream, dir string, instrumented bool) (trial, error) {
			return clusterTrial(ctx, st, dir, instrumented, k < replayTrials)
		})
	if err != nil {
		return nil, err
	}
	out := summarize(plain, traced)
	if ctx.traced {
		out.metrics["attribution.gap_pct"] = ctx.spans.gapPct("client.replicate", "client.post", "cluster.ship_round", "cluster.ack_wait")
	}
	return out, nil
}

// fleet is one booted three-member cluster hosting the session.
type fleet struct {
	nodes     []*cluster.Node
	primary   *cluster.Node
	followers []*cluster.Node
	wire      *countingTransport
	client    *http.Client
	regs      map[cluster.MemberID]*obs.Registry
	hubs      map[cluster.MemberID]*obs.TraceHub
}

// batchLog is what the client measured, batch by batch.
type batchLog struct {
	postMs, ackMs, shipUs []float64
	times                 [][4]int64 // POST start, POST answer, first ship done, all acked (unix ns)
	attempted, failed     int64
}

// clusterTrial boots a cluster and replicates the base network (set-up),
// then replicates the stream batch by batch, and checks that every
// follower equals the primary at the final seq.
func clusterTrial(ctx *runCtx, st stream, dir string, instrumented, replay bool) (trial, error) {
	t := trial{}
	t0 := time.Now()
	fl, err := bootFleet(dir, st.seed, instrumented)
	if err != nil {
		return t, err
	}
	defer fl.stop()
	var setupLog batchLog
	for i := 0; i < len(st.Base); i += 50 {
		if err := fl.replicate(st.Base[i:min(i+50, len(st.Base))], &setupLog); err != nil {
			return t, fmt.Errorf("base events: %w", err)
		}
	}
	t.setupS = time.Since(t0).Seconds()
	ps, _ := fl.primary.Manager().Get(sessionID)
	base0 := viewRecodings(ps.View())

	var b batchLog
	fl.wire.resetShip()
	req0, bytes0 := fl.wire.requests.Load(), fl.wire.bytes.Load()
	cpu0, c0 := cpuTime(), time.Now()
	for i := 0; i*batchSize < len(st.Events); i++ {
		if err := fl.replicate(st.Events[i*batchSize:(i+1)*batchSize], &b); err != nil {
			return t, err
		}
		if (i+1)%tickEvery == 0 {
			fl.tick()
		}
	}
	t.eps = float64(len(st.Events)) / time.Since(c0).Seconds()
	t.cpuUsPerEvent = float64((cpuTime() - cpu0).Microseconds()) / float64(len(st.Events))
	requests, wireBytes := fl.wire.requests.Load()-req0, fl.wire.bytes.Load()-bytes0
	t.p50Ms, t.p90Ms = median(b.postMs), quantile(b.postMs, 0.9)
	t.attempted, t.failed = b.attempted, b.failed
	t.extras = map[string]float64{
		"write_p50_ms": t.p50Ms, "write_p90_ms": t.p90Ms, "write_p99_ms": quantile(b.postMs, 0.99), "write_eps_max": t.eps,
		"follower_ack_p50_ms": median(b.ackMs), "follower_ack_p99_ms": quantile(b.ackMs, 0.99),
	}

	// Followers must equal the primary at the final seq.
	v := ps.View()
	if want := len(st.Base) + len(st.Events); v.Seq() != want {
		return t, fmt.Errorf("primary at seq %d, want %d", v.Seq(), want)
	}
	final, err := checkView(v)
	if err != nil {
		return t, err
	}
	for _, f := range fl.followers {
		rep, ok := f.Manager().GetReplica(sessionID)
		if !ok {
			return t, fmt.Errorf("follower %s holds no replica", f.ID())
		}
		fv := rep.View()
		if fv.Seq() != v.Seq() {
			return t, fmt.Errorf("follower %s at seq %d, primary at %d", f.ID(), fv.Seq(), v.Seq())
		}
		for _, name := range hosted {
			if a, _ := fv.Assignment(name); !reflect.DeepEqual(a, final[name]) {
				return t, fmt.Errorf("follower %s: %s assignment differs from the primary's", f.ID(), name)
			}
		}
	}
	t.recodings, t.events = viewRecodings(v)-base0, len(st.Events)
	for _, name := range hosted {
		mt, _ := v.MetricsOf(name)
		t.code += float64(mt.MaxColor)
	}
	if !instrumented {
		return t, nil
	}

	if err := ps.Barrier(); err != nil {
		return t, err
	}
	walDir, err := fl.primary.Manager().WALDir(sessionID)
	if err != nil {
		return t, err
	}
	wal, err := readWAL(walDir)
	if err != nil {
		return t, err
	}
	events := float64(len(st.Events))
	t.layers = map[string]float64{
		"cluster.ship_round_us":      mean(b.shipUs),
		"cluster.ship_rtt_us":        mean(fl.wire.shipRTTs()),
		"cluster.requests_per_event": float64(requests) / events,
		"cluster.bytes_per_event":    float64(wireBytes) / events,
	}
	fl.layers(ctx.spans, &b, len(st.Base), t.layers)
	if !replay {
		return t, nil
	}
	return t, replayLayers(st.Base, st.Events, final, wal, t.layers)
}

func bootFleet(dir string, seed uint64, instrumented bool) (*fleet, error) {
	fl := &fleet{
		wire:   &countingTransport{base: http.DefaultTransport},
		client: &http.Client{Timeout: 30 * time.Second},
		regs:   map[cluster.MemberID]*obs.Registry{},
		hubs:   map[cluster.MemberID]*obs.TraceHub{},
	}
	for i := 0; i < members; i++ {
		id := cluster.MemberID(fmt.Sprintf("m%d", i))
		cfg := cluster.Config{
			ID: id, Dir: filepath.Join(dir, string(id)), Replicas: members - 1,
			Seed: seed + uint64(i), Transport: fl.wire,
			Log: obs.NewLogger(os.Stderr, obs.LevelError),
		}
		if instrumented {
			fl.regs[id], fl.hubs[id] = obs.NewRegistry(), obs.NewTraceHub(traceRing)
			cfg.Registry, cfg.Trace = fl.regs[id], fl.hubs[id]
		}
		n, err := cluster.NewNode(cfg)
		if err != nil {
			fl.stop()
			return nil, err
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			fl.stop()
			return nil, err
		}
		fl.nodes = append(fl.nodes, n)
	}
	for _, n := range fl.nodes[1:] {
		if err := n.JoinCluster(fl.nodes[0].Addr()); err != nil {
			fl.stop()
			return nil, err
		}
	}
	for i := 0; i < 3; i++ {
		fl.tick()
	}
	owners := cluster.Owners(sessionID, fl.nodes[0].Membership().Alive(), members)
	if len(owners) != members {
		fl.stop()
		return nil, fmt.Errorf("membership sees %d of %d members", len(owners), members)
	}
	for _, n := range fl.nodes {
		if n.ID() == owners[0].ID {
			fl.primary = n
		} else {
			fl.followers = append(fl.followers, n)
		}
	}
	if _, err := fl.primary.CreateSession(sessionID, cluster.SessionConfig{Strategies: hosted}); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

// replicate POSTs one batch to the primary over HTTP, then ships until
// every follower has acknowledged it. It records the batch's timings.
func (fl *fleet) replicate(evs []strategy.Event, r *batchLog) error {
	recs := make([]trace.EventRecord, len(evs))
	for i, ev := range evs {
		var err error
		if recs[i], err = trace.EncodeEvent(ev); err != nil {
			return err
		}
	}
	body, err := json.Marshal(map[string]any{"events": recs})
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := fl.client.Post("http://"+fl.primary.Addr()+"/v1/sessions/"+sessionID+"/events", "application/json", bytes.NewReader(body))
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	var res struct {
		Applied int    `json:"applied"`
		Seq     int    `json:"seq"`
		Error   string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK || res.Applied != len(evs) {
		r.failed++
		return fmt.Errorf("POST events: HTTP %d, applied %d of %d (%s)", resp.StatusCode, res.Applied, len(evs), res.Error)
	}
	var t2 time.Time
	for attempt := 0; ; attempt++ {
		if err := fl.primary.ShipSession(sessionID); err != nil {
			return fmt.Errorf("ship: %w", err)
		}
		if t2.IsZero() {
			t2 = time.Now()
		}
		if fl.acked(res.Seq) {
			break
		}
		if attempt == 100 {
			return fmt.Errorf("followers never acknowledged seq %d: %v", res.Seq, fl.primary.AckedOffsets(sessionID))
		}
	}
	t3 := time.Now()
	r.postMs = append(r.postMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
	r.ackMs = append(r.ackMs, float64(t3.Sub(t0).Nanoseconds())/1e6)
	r.shipUs = append(r.shipUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
	r.times = append(r.times, [4]int64{t0.UnixNano(), t1.UnixNano(), t2.UnixNano(), t3.UnixNano()})
	return nil
}

func (fl *fleet) acked(seq int) bool {
	offs := fl.primary.AckedOffsets(sessionID)
	if len(offs) < len(fl.followers) {
		return false
	}
	for _, off := range offs {
		if off < seq {
			return false
		}
	}
	return true
}

// tick runs one gossip round on every member, then one reconcile step.
func (fl *fleet) tick() {
	for _, n := range fl.nodes {
		n.Tick()
	}
	for _, n := range fl.nodes {
		n.Reconcile()
	}
}

func (fl *fleet) stop() {
	for _, n := range fl.nodes {
		n.Stop()
	}
}

// layers fills the serve and follower per-layer metrics of an
// instrumented trial from the members' registries and trace rings, and
// records the batch spans.
func (fl *fleet) layers(spans *spanLog, b *batchLog, nBase int, l map[string]float64) {
	preg := fl.regs[fl.primary.ID()]
	l["serve.apply_us"] = histMeanUs(preg, "serve_apply_seconds")
	l["serve.fsync_us"] = histMeanUs(preg, "serve_fsync_seconds")
	var appendUs, applyUs, fsyncUs []float64
	for _, f := range fl.followers {
		applyUs = append(applyUs, histMeanUs(fl.regs[f.ID()], "serve_apply_seconds"))
		st := stageTimes(fl.hubs[f.ID()].Tracer(sessionID).Entries(int64(nBase + 1)))
		for seq, s := range st {
			// Within a batch, the follower appends an event right after
			// applying the one before it.
			if prev, ok := st[seq-1]; ok && (seq-int64(nBase)-1)%batchSize != 0 {
				if a, p := s[obs.StageFollowerWALAppend], prev[obs.StageFollowerApply]; a > 0 && p > 0 && a > p {
					appendUs = append(appendUs, float64(a-p)/1e3)
				}
			}
			if fs, ap := s[obs.StageFollowerFsync], s[obs.StageFollowerApply]; fs > 0 && ap > 0 {
				fsyncUs = append(fsyncUs, float64(fs-ap)/1e3)
			}
		}
	}
	l["cluster.follower_append_us"] = mean(appendUs)
	l["cluster.follower_apply_us"] = mean(applyUs)
	l["cluster.follower_fsync_us"] = mean(fsyncUs)

	pst := stageTimes(fl.hubs[fl.primary.ID()].Tracer(sessionID).Entries(int64(nBase + 1)))
	var wait []float64
	for i, bt := range b.times {
		last := int64(nBase + (i+1)*batchSize)
		root := spans.add("client.replicate", last, bt[0], bt[3], -1)
		post := spans.add("client.post", last, bt[0], bt[1], root)
		spans.add("cluster.ship_round", last, bt[1], bt[2], root)
		spans.add("cluster.ack_wait", last, bt[2], bt[3], root)
		for seq := last - batchSize + 1; seq <= last; seq++ {
			if enq, app := pst[seq][obs.StageEnqueue], pst[seq][obs.StageApply]; enq > 0 && app > 0 {
				spans.add("serve.enqueue_to_apply", seq, enq, app, post)
				wait = append(wait, float64(app-enq)/1e3)
			}
		}
	}
	l["serve.mailbox_wait_us"] = mean(wait) - l["serve.apply_us"]
}

// countingTransport counts the members' outbound requests and bytes
// (request plus response bodies) and times ship round trips.
type countingTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
	bytes    atomic.Int64
	mu       sync.Mutex
	ship     []float64 // µs
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(req.URL.Path, "/cluster/ship/") {
		el := float64(time.Since(t0).Nanoseconds()) / 1e3
		t.mu.Lock()
		t.ship = append(t.ship, el)
		t.mu.Unlock()
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

func (t *countingTransport) shipRTTs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ship...)
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) resetShip() {
	t.mu.Lock()
	t.ship = nil
	t.mu.Unlock()
}
