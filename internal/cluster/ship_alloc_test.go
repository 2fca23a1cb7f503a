package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// feedWithFrames builds a seeded walFeed holding n event frames with
// seqs 1..n, bypassing the file tailer — batch assembly is what is
// under test here.
func feedWithFrames(t testing.TB, n int) *walFeed {
	t.Helper()
	fd := newWALFeed(0)
	fd.seeded = true
	fd.base = 1
	fd.nextSeq = n + 1
	for i := 1; i <= n; i++ {
		frame, err := trace.AppendEventFrame(nil, i, strategy.LeaveEvent(7))
		if err != nil {
			t.Fatal(err)
		}
		fd.entries = append(fd.entries, frame)
	}
	return fd
}

// TestShipBatchAssemblyZeroAlloc is the allocation-regression gate on
// the replication hot path: once the shipper's body buffer is warm,
// assembling a ship request (header line + raw frames) allocates
// nothing — the frames were encoded once by the WAL writer and are
// only copied here.
func TestShipBatchAssemblyZeroAlloc(t *testing.T) {
	fd := feedWithFrames(t, 64)
	sh := newShipper("sess", "follower-1", SessionConfig{Strategies: []string{"Minim", "CP"}, SyncEvery: 1})
	if _, ok := sh.next(fd, "primary-1"); !ok {
		t.Fatal("warm-up batch missing")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := sh.next(fd, "primary-1"); !ok {
			t.Fatal("batch missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("ship batch assembly allocates %.1f times per batch; want 0", allocs)
	}
}

// TestShipBatchAssemblyZeroAllocInstrumented is the same gate with the
// replication-lag SLI children attached, exercising the per-round
// metric updates the ship loop performs alongside batch assembly:
// counters, gauges, and trace-ring stores must all stay alloc-free.
func TestShipBatchAssemblyZeroAllocInstrumented(t *testing.T) {
	fd := feedWithFrames(t, 64)
	sh := newShipper("sess", "follower-1", SessionConfig{Strategies: []string{"Minim", "CP"}, SyncEvery: 1})
	no := newNodeObs(obs.NewRegistry(), obs.NewTraceHub(obs.DefaultTraceRing), nil)
	sh.obs = no.forShipper("sess", "follower-1")
	if _, ok := sh.next(fd, "primary-1"); !ok {
		t.Fatal("warm-up batch missing")
	}
	allocs := testing.AllocsPerRun(200, func() {
		batch, ok := sh.next(fd, "primary-1")
		if !ok {
			t.Fatal("batch missing")
		}
		sh.obs.batches.Inc()
		sh.obs.records.Add(int64(batch.count))
		sh.obs.tracer.Record(int64(batch.from+batch.count-1), obs.StageShip)
		sh.obs.lagRecords.Set(int64(fd.endSeq() - sh.acked))
		sh.obs.lagSeconds.Set(fd.lagSeconds(sh.acked, 0))
	})
	if allocs != 0 {
		t.Fatalf("instrumented ship round allocates %.1f times per batch; want 0", allocs)
	}
}

// TestShipBodyShape: the hand-assembled header line is valid JSON that
// decodes to the shipReq the receiver expects, and the body carries the
// frames byte-for-byte.
func TestShipBodyShape(t *testing.T) {
	fd := feedWithFrames(t, 3)
	sh := newShipper("sess", "follower-1", SessionConfig{Strategies: []string{"Minim"}, CompactEvery: 8})
	batch, ok := sh.next(fd, `we"ird\prim`+"\n")
	if !ok {
		t.Fatal("no batch")
	}
	nl := bytes.IndexByte(batch.body, '\n')
	if nl < 0 {
		t.Fatal("body has no header line")
	}
	var req shipReq
	if err := json.Unmarshal(batch.body[:nl+1], &req); err != nil {
		t.Fatalf("header line does not parse: %v", err)
	}
	if req.Session != "sess" || string(req.Primary) != `we"ird\prim`+"\n" || req.From != 1 || req.Count != 3 {
		t.Fatalf("header decoded to %+v", req)
	}
	if req.Config.Strategies[0] != "Minim" || req.Config.CompactEvery != 8 {
		t.Fatalf("config did not survive: %+v", req.Config)
	}
	var wantFrames []byte
	for _, f := range fd.entries {
		wantFrames = append(wantFrames, f...)
	}
	if !bytes.Equal(batch.body[nl+1:], wantFrames) {
		t.Fatal("body frames differ from the feed's window")
	}
}
