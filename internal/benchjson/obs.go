package benchjson

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The obs benches measure the cost of the observability layer on the
// two hot paths it instruments: one event through a live serve session
// (apply) and one replication round's batch work (ship). Each comes in
// an uninstrumented and an instrumented variant, run back to back in
// the same process, so BENCH_obs.json can state the overhead as a
// ratio of medians — the number the <=3% CI gate checks.

// obsApplyNodes is the session size the apply benches run against.
const obsApplyNodes = 200

// benchApplySession builds a live 200-node Minim session, optionally
// instrumented exactly as cdmaserved instruments production managers.
func benchApplySession(b *testing.B, instrumented bool) *serve.Session {
	b.Helper()
	m := serve.NewManager("") // no WAL: the apply path itself is under test
	b.Cleanup(func() { m.Abort() })
	if instrumented {
		m.Instrument(serve.NewMetrics(obs.NewRegistry(), obs.NewTraceHub(obs.DefaultTraceRing)))
	}
	s, err := m.Create("bench-obs", serve.Config{Strategies: []string{"Minim"}, Mailbox: 1024})
	if err != nil {
		b.Fatal(err)
	}
	p := workload.Defaults()
	p.N = obsApplyNodes
	for _, ev := range workload.JoinScript(5, p) {
		if err := s.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// obsApplyScriptLen is the fixed move script each apply op replays.
// Replaying the SAME moves every op makes the per-op work identical
// from the second op on (each move lands on the same target position,
// so the state trajectory repeats), which is what lets a 3% gate
// distinguish instrumentation cost from Minim's heavy-tailed recode
// cascades.
const obsApplyScriptLen = 32

func obsApplyScript() []strategy.Event {
	p := workload.Defaults()
	rng := xrand.New(77)
	evs := make([]strategy.Event, 0, obsApplyScriptLen)
	for i := 0; i < obsApplyScriptLen; i++ {
		id := graph.NodeID(rng.Intn(obsApplyNodes))
		pos := geom.Point{X: rng.Uniform(0, p.ArenaW), Y: rng.Uniform(0, p.ArenaH)}
		evs = append(evs, strategy.MoveEvent(id, pos))
	}
	return evs
}

func benchApply(b *testing.B, instrumented bool) {
	s := benchApplySession(b, instrumented)
	script := obsApplyScript()
	// One warm-up pass outside the timer: from here every op replays an
	// identical state trajectory.
	for _, ev := range script {
		if err := s.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range script {
			if err := s.Apply(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ApplyUninstrumented times one move event through a bare serve session
// — the baseline half of the obs-overhead gate.
func ApplyUninstrumented(b *testing.B) { benchApply(b, false) }

// ApplyInstrumented is the same apply with the full metric + trace
// bundle attached (counters, latency histograms, view gauges, trace
// ring): the cost the gate bounds.
func ApplyInstrumented(b *testing.B) { benchApply(b, true) }

// shipHeader mirrors the shipper's header line.
type shipHeader struct {
	Session string `json:"session"`
	Primary string `json:"primary"`
	From    int    `json:"from"`
	Count   int    `json:"count"`
}

// shipFrames pre-encodes the 64-event batch window once, as the
// cluster feed does (shippers only copy frames, never re-encode).
func shipFrames(b *testing.B) []byte {
	b.Helper()
	var frames []byte
	var err error
	for j, ev := range benchEvents(shipBatchEvents) {
		if frames, err = trace.AppendEventFrame(frames, j+1, ev); err != nil {
			b.Fatal(err)
		}
	}
	return frames
}

// benchShipAssemble is the CPU half of a 3-follower ship round: per
// follower, marshal the header line and splice it with the batch's
// pre-encoded frames into a reused body buffer. The instrumented
// variant adds every SLI update the shipper makes in a round —
// batch/record counters, two trace-ring stores per follower, and the
// replication-lag gauges once at the end (shipOne's deferred publish).
//
// The pair is deliberately free of I/O: the DIFFERENCE of the two
// medians is the instrumentation's cost in nanoseconds, measured tight
// enough for a 3% gate; cmd/benchjson divides it by the full-round
// time (ShipRoundHTTP) to state the overhead the way it is felt.
func benchShipAssemble(b *testing.B, instrumented bool) {
	frames := shipFrames(b)
	var (
		batches, records *obs.Counter
		lagRecords       *obs.Gauge
		lagSeconds       *obs.FloatGauge
		tracer           *obs.Tracer
	)
	if instrumented {
		reg := obs.NewRegistry()
		hub := obs.NewTraceHub(obs.DefaultTraceRing)
		batches = reg.Counter("bench_ship_batches_total", "bench", "session", "s", "follower", "f")
		records = reg.Counter("bench_ship_records_total", "bench", "session", "s", "follower", "f")
		lagRecords = reg.Gauge("bench_ship_lag_records", "bench", "session", "s", "follower", "f")
		lagSeconds = reg.FloatGauge("bench_ship_lag_seconds", "bench", "session", "s", "follower", "f")
		tracer = hub.Tracer("s")
	}
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < shipFollowers; f++ {
			h, err := json.Marshal(shipHeader{Session: "s", Primary: "p1", From: 1, Count: shipBatchEvents})
			if err != nil {
				b.Fatal(err)
			}
			body = append(append(append(body[:0], h...), '\n'), frames...)
			if len(body) == 0 {
				b.Fatal("empty body")
			}
			if instrumented {
				batches.Inc()
				records.Add(shipBatchEvents)
				tracer.Record(shipBatchEvents, obs.StageShip)
				tracer.Record(shipBatchEvents, obs.StageFollowerAck)
			}
		}
		if instrumented {
			lagRecords.Set(0)
			lagSeconds.Set(0)
		}
	}
}

// ShipAssembleBase is the uninstrumented half of the ship pair.
func ShipAssembleBase(b *testing.B) { benchShipAssemble(b, false) }

// ShipAssembleObs is the instrumented half of the ship pair.
func ShipAssembleObs(b *testing.B) { benchShipAssemble(b, true) }

// TraceRecord times the full per-event trace instrumentation an
// instrumented apply performs — the current-time ring store, the
// carried-timestamp store (the enqueue correlation), the latency
// observation, and the slow-ring offer — and reports allocations: the
// gate requires zero, because all four sit on the apply hot path.
func TraceRecord(b *testing.B) {
	hub := obs.NewTraceHub(obs.DefaultTraceRing)
	hub.SetMember("bench")
	tracer := hub.Tracer("s")
	reg := obs.NewRegistry()
	lat := reg.Histogram("bench_apply_seconds", "bench", nil, "session", "s")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i)
		tracer.Record(seq, obs.StageApply)
		tracer.RecordAt(seq, obs.StageEnqueue, seq)
		lat.Observe(0.0001)
		hub.NoteSlow("s", seq, int64(100_000)) // under threshold: the common path
	}
}

// TraceMerge times the collector's cross-member merge: three members'
// wrapped rings (one skewed past the causality bound, so the clamp path
// runs) into per-seq waterfalls with stage percentiles. This is the
// /cluster/trace request-goroutine cost, not a hot path — tracked so a
// regression is visible, not gated on allocations.
func TraceMerge(b *testing.B) {
	const events = 256
	mts := make([]obs.MemberTrace, 0, 3)
	for m := 0; m < 3; m++ {
		member := string(rune('a' + m))
		t := obs.NewTraceHub(obs.DefaultTraceRing).Tracer("s")
		for i := 0; i < events; i++ {
			at := int64(i)*1_000_000 + int64(m)*10_000
			t.RecordAt(int64(i), obs.StageApply, at)
			if m == 0 {
				t.RecordAt(int64(i), obs.StageShip, at+5_000)
				t.RecordAt(int64(i), obs.StageFollowerAck, at+50_000)
			} else {
				t.RecordAt(int64(i), obs.StageFollowerApply, at+1_000)
			}
		}
		entries := t.Entries(0)
		for j := range entries {
			entries[j].Member = member
		}
		// Member b's clock runs 1ms ahead: its aligned spans land before
		// the primary's ship stamp and exercise the clamp.
		var off int64
		if m == 1 {
			off = 1_000_000
		}
		mts = append(mts, obs.MemberTrace{Member: member, OffsetNs: off, Entries: entries})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if merged := obs.MergeTraces("s", mts); len(merged.Events) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// ShipRoundHTTP times one complete 3-follower ship round over real
// loopback HTTP — body assembly, push, ack read — with no
// instrumentation: the denominator that turns the pair's delta into an
// overhead percentage of what a ship round actually costs.
func ShipRoundHTTP(b *testing.B) {
	frames := shipFrames(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"acked":64}`))
	})}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	url := "http://" + ln.Addr().String() + "/cluster/ship/bench"
	client := &http.Client{}
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < shipFollowers; f++ {
			h, err := json.Marshal(shipHeader{Session: "s", Primary: "p1", From: 1, Count: shipBatchEvents})
			if err != nil {
				b.Fatal(err)
			}
			body = append(append(append(body[:0], h...), '\n'), frames...)
			resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}
