package cluster

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// lateOwnerSession finds a session ID for which the future member m3
// will be IN the owner set of a 4-member/R=2 cluster without becoming
// its primary: the catch-up scenario (m3 must replicate an existing
// session) without triggering a handoff.
func lateOwnerSession(t *testing.T, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("%s-%d", prefix, i)
		s3 := rendezvousScore("m3", cand)
		var worse int
		top := true
		for _, m := range []MemberID{"m0", "m1", "m2"} {
			s := rendezvousScore(m, cand)
			if s < s3 {
				worse++
			}
			if s > s3 {
				top = false
			}
		}
		// m3 out-scores exactly one current member: it joins the owner
		// set as a follower and someone is displaced, but the primary
		// keeps its seat.
		if worse == 1 && !top {
			return cand
		}
	}
	t.Fatal("no candidate session id found")
	return ""
}

// walSnapshotSeq reads the seq of the newest snapshot a member's WAL
// for the session starts at (0 = never compacted).
func walSnapshotSeq(t *testing.T, dir, session string) int {
	t.Helper()
	recs, _, err := serve.TailWAL(filepath.Join(dir, session+".wal"), serve.WALPos{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Snap == nil {
		t.Fatalf("wal of %s does not start with a snapshot", session)
	}
	return recs[0].Snap.Seq
}

// assertReplicasIdentical compares two follower replicas bit-for-bit:
// topology, interference digraph, per-strategy assignments, and full
// metrics.
func assertReplicasIdentical(t *testing.T, tag string, a, b *serve.Replica) {
	t.Helper()
	if a.Seq() != b.Seq() {
		t.Fatalf("%s: replicas at seq %d vs %d", tag, a.Seq(), b.Seq())
	}
	err := a.InspectState(func(anet *adhoc.Network, aas []toca.Assignment, ams []*strategy.Metrics) {
		err := b.InspectState(func(bnet *adhoc.Network, bas []toca.Assignment, bms []*strategy.Metrics) {
			sameGraph(t, tag, anet.Graph(), bnet.Graph())
			for _, id := range anet.Nodes() {
				ca, _ := anet.Config(id)
				cb, ok := bnet.Config(id)
				if !ok || ca != cb {
					t.Fatalf("%s: config of %d differs (%+v vs %+v/%v)", tag, id, ca, cb, ok)
				}
			}
			for i := range aas {
				if !reflect.DeepEqual(aas[i], bas[i]) {
					t.Fatalf("%s: assignment %d differs between replicas", tag, i)
				}
				if !reflect.DeepEqual(ams[i], bms[i]) {
					t.Fatalf("%s: metrics %d differ: %+v vs %+v", tag, i, ams[i], bms[i])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCatchupDifferentialEngine is the acceptance differential
// for the catch-up path: a session compacts its replicated WAL under
// traffic (barrier-coordinated, both sides), a member joins AFTER the
// early history has been truncated — so it can only be bootstrapped by
// snapshot transfer — and its replica must be bit-identical (topology,
// digraph, assignments, metrics) to a follower that replayed the stream
// from the start, and to the single-process reference.
func TestSnapshotCatchupDifferentialEngine(t *testing.T) {
	h := newHarness(t, 3, 2)
	session := lateOwnerSession(t, "cu-eng")
	script := testScript(101, 30, 130)
	cfg := SessionConfig{Strategies: clusterNames, SyncEvery: 1, SegmentBytes: 1024, CompactEvery: 25}
	ri := h.createSession(session, cfg)

	k := 100
	for i := 0; i < k; i += 20 {
		h.applyEvents(session, script[i:i+20])
		h.shipAll() // ship + advance the compaction state machine
		h.shipAll()
	}
	// Compaction really happened, on the primary AND (via the shipped
	// barrier) on its followers: every live log now starts at a mid-run
	// snapshot, and the early records are gone from disk.
	pSnap := walSnapshotSeq(t, h.dirs[ri.Primary.ID], session)
	if pSnap == 0 {
		t.Fatal("primary never compacted its WAL")
	}
	for _, f := range ri.Followers {
		if got := walSnapshotSeq(t, h.dirs[f.ID], session); got == 0 {
			t.Fatalf("follower %s never compacted its WAL (barrier not honored)", f.ID)
		}
	}

	// A late joiner that placement makes an owner: the only way it can
	// hold the session is the snapshot transfer (the full log no longer
	// exists anywhere on disk).
	n3 := h.addNode(2)
	h.tickAll(3)
	h.reconcileAll()
	h.shipAll()
	rep3, ok := n3.Manager().GetReplica(session)
	if !ok {
		t.Fatal("late joiner holds no replica after reconcile+ship")
	}
	if rep3.Seq() != k {
		t.Fatalf("late joiner at seq %d, want %d", rep3.Seq(), k)
	}
	if got := walSnapshotSeq(t, h.dirs["m3"], session); got == 0 {
		t.Fatal("late joiner's WAL starts at seq 0: it replayed instead of installing a snapshot")
	}

	// Bit-identity: snapshot-installed vs stream-replayed follower.
	for _, f := range ri.Followers {
		if f.ID == n3.ID() {
			continue
		}
		repF, ok := h.nodes[f.ID].Manager().GetReplica(session)
		if !ok {
			continue // displaced by m3's arrival and decommissioned
		}
		if repF.Seq() != k {
			t.Fatalf("replayed follower %s at seq %d, want %d", f.ID, repF.Seq(), k)
		}
		assertReplicasIdentical(t, "installed-vs-replayed", rep3, repF)
	}
	// And against the single-process reference.
	ref := refSession(t, script[:k])
	err := rep3.InspectState(func(net *adhoc.Network, assigns []toca.Assignment, metrics []*strategy.Metrics) {
		sameGraph(t, "installed-vs-ref", net.Graph(), ref.Engine().Network().Graph())
		for i, name := range clusterNames {
			rs, _ := ref.StrategyOf(sim.StrategyName(name))
			if !reflect.DeepEqual(assigns[i], rs.Assignment()) {
				t.Fatalf("installed replica %s assignment differs from reference", name)
			}
			rm, _ := ref.MetricsOf(sim.StrategyName(name))
			if !reflect.DeepEqual(metrics[i], rm) {
				t.Fatalf("installed replica %s metrics %+v, want %+v", name, metrics[i], rm)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// The run continues: writes flow, replication reaches everyone
	// (including the installed follower), and the final state matches.
	h.applyEvents(session, script[k:])
	h.shipAll()
	pn := h.nodeHosting(session)
	for fid, acked := range pn.AckedOffsets(session) {
		if acked != len(script) {
			t.Fatalf("follower %s acked %d, want %d", fid, acked, len(script))
		}
	}
	s, _ := pn.Manager().Get(session)
	assertSessionEquals(t, "continued", s, refSession(t, script), len(script))
}

// TestFeedSharedFanout exercises the walFeed directly: one bounded
// decoded window feeds any number of cursors, pruning follows the
// slowest acknowledged offset, cursors behind the window are clamped to
// its start (the catch-up trigger), and a compaction under the feed
// repositions it without duplicating or losing records.
func TestFeedSharedFanout(t *testing.T) {
	mgr := serve.NewManager(t.TempDir())
	cfg := serve.Config{Strategies: []string{"Minim"}, SyncEvery: 1, CompactEvery: -1, SegmentBytes: 512}
	s, err := mgr.Create("feed", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.CloseAll()
	dir, err := mgr.WALDir("feed")
	if err != nil {
		t.Fatal(err)
	}
	script := testScript(107, 20, 20)
	apply := func(evs []strategy.Event) {
		t.Helper()
		for _, ev := range evs {
			if err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	apply(script[:30])

	fd := newWALFeed(8)
	if err := fd.pull(dir); err != nil {
		t.Fatal(err)
	}
	if got := len(fd.entries); got > 8+16 {
		t.Fatalf("backlog cap ignored: %d entries buffered", got)
	}
	// Two cursors over the same window: identical slices, one read.
	a1, s1 := fd.window(1, 4)
	a2, s2 := fd.window(1, 4)
	if s1 != 1 || s2 != 1 || len(a1) != 4 || !reflect.DeepEqual(a1, a2) {
		t.Fatalf("cursors over one window disagree: (%d,%d) lens (%d,%d)", s1, s2, len(a1), len(a2))
	}
	// Pruning follows the slowest cursor; a cursor now behind the
	// window is clamped to its start — the gap a follower resolves by
	// snapshot catch-up.
	fd.prune(6)
	if _, start := fd.window(3, 4); start != 7 {
		t.Fatalf("window for a pruned cursor starts at %d, want clamp to 7", start)
	}

	// Drain fully: repeated pull+prune walks the whole log exactly once.
	seen := 0
	last := 6
	for {
		fd.prune(last)
		if err := fd.pull(dir); err != nil {
			t.Fatal(err)
		}
		evs, start := fd.window(last+1, 1000)
		if len(evs) == 0 {
			break
		}
		if start != last+1 {
			t.Fatalf("window starts at %d, want %d", start, last+1)
		}
		last = start + len(evs) - 1
		seen += len(evs)
	}
	if last != 30 {
		t.Fatalf("drained through seq %d, want 30", last)
	}
	_ = seen

	// A barrier record flows through the feed.
	bseq, err := s.MarkCompactBarrier()
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.pull(dir); err != nil {
		t.Fatal(err)
	}
	if got := fd.barrierSeq(); got != bseq {
		t.Fatalf("feed barrier %d, want %d", got, bseq)
	}

	// Compaction under the feed: the next pull repositions at the new
	// snapshot and later events keep flowing with contiguous seqs.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	apply(script[30:40])
	if err := fd.pull(dir); err != nil {
		t.Fatal(err)
	}
	evs, start := fd.window(31, 1000)
	if start != 31 || len(evs) == 0 {
		t.Fatalf("post-compaction window [%d, +%d), want a contiguous run from 31", start, len(evs))
	}
	if got := fd.barrierSeq(); got < 30 {
		t.Fatalf("compaction snapshot did not advance the feed barrier (at %d)", got)
	}
	// Acknowledgments free backlog room; the remainder then flows with
	// contiguous seqs up to the log's end.
	last = start + len(evs) - 1
	for last < 40 {
		fd.prune(last)
		if err := fd.pull(dir); err != nil {
			t.Fatal(err)
		}
		evs, start = fd.window(last+1, 1000)
		if len(evs) == 0 {
			t.Fatalf("feed stalled at seq %d with log at 40", last)
		}
		if start != last+1 {
			t.Fatalf("window starts at %d, want %d", start, last+1)
		}
		last = start + len(evs) - 1
	}
}
