package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestFailoverDifferentialEngine is the acceptance differential for the
// engine backend: kill a primary mid-run with an unshipped tail; the
// promoted follower must be bit-identical (assignments, digraphs,
// metrics incl. RecodingsByKind) to the primary at the last
// acknowledged WAL offset, and a continued run — the client resuming
// from the promoted seq — must finish identical to an uncrashed
// single-process run.
func TestFailoverDifferentialEngine(t *testing.T) {
	h := newHarness(t, 3, 2)
	script := testScript(61, 40, 140)
	cfg := SessionConfig{Strategies: clusterNames, SyncEvery: 1, SegmentBytes: 4096}
	ri := h.createSession("fo-engine", cfg)
	if len(ri.Followers) != 2 {
		t.Fatalf("expected 2 followers, got %v", ri.Followers)
	}

	k1 := 100
	h.applyEvents("fo-engine", script[:k1])
	h.shipAll()
	pNode := h.nodes[ri.Primary.ID]
	for fid, acked := range pNode.AckedOffsets("fo-engine") {
		if acked != k1 {
			t.Fatalf("follower %s acked %d, want %d", fid, acked, k1)
		}
	}
	// Followers' warm replica views already serve the shipped prefix.
	refK1 := refSession(t, script[:k1])
	for _, f := range ri.Followers {
		rep, ok := h.nodes[f.ID].Manager().GetReplica("fo-engine")
		if !ok {
			t.Fatalf("follower %s has no replica", f.ID)
		}
		if rep.Seq() != k1 {
			t.Fatalf("follower %s replica at %d, want %d", f.ID, rep.Seq(), k1)
		}
		v := rep.View()
		for _, name := range clusterNames {
			rs, _ := refK1.StrategyOf(sim.StrategyName(name))
			got, _ := v.Assignment(name)
			if !reflect.DeepEqual(got, rs.Assignment()) {
				t.Fatalf("follower %s view %s assignment differs", f.ID, name)
			}
		}
	}

	// An unshipped tail the failover must lose.
	h.applyEvents("fo-engine", script[k1:k1+20])

	h.crash(ri.Primary.ID)
	h.tickAll(4) // FailAfter=2: survivors declare the primary dead
	for _, id := range h.order {
		if h.crashed[id] {
			continue
		}
		if h.nodes[id].Membership().IsAlive(ri.Primary.ID) {
			t.Fatalf("%s still considers the crashed primary alive", id)
		}
	}
	h.reconcileAll()

	pn := h.nodeHosting("fo-engine")
	if pn.ID() == ri.Primary.ID {
		t.Fatal("crashed primary still hosts the session")
	}
	s, _ := pn.Manager().Get("fo-engine")
	assertSessionEquals(t, "promoted", s, refK1, k1)

	// Routing follows the promotion.
	if r2 := h.route("fo-engine"); r2.Primary.ID != pn.ID() {
		t.Fatalf("route points at %s, session lives on %s", r2.Primary.ID, pn.ID())
	}

	// The client resumes from the promoted sequence number and the
	// continued run matches an uncrashed full run, event for event.
	seq := h.seqOf("fo-engine")
	if seq != k1 {
		t.Fatalf("promoted seq %d, want acked offset %d", seq, k1)
	}
	h.applyEvents("fo-engine", script[seq:])
	full := refSession(t, script)
	s2, _ := h.nodeHosting("fo-engine").Manager().Get("fo-engine")
	assertSessionEquals(t, "continued", s2, full, len(script))

	// The new primary ships onward: its surviving follower catches up
	// past the failover point.
	h.shipAll()
	for fid, acked := range h.nodeHosting("fo-engine").AckedOffsets("fo-engine") {
		if acked != len(script) {
			t.Fatalf("post-failover follower %s acked %d, want %d", fid, acked, len(script))
		}
	}
}

// TestFailoverFallbackPastEmptyOwner: a member that joins during a
// failover window can out-rank the surviving follower without holding
// any data. The follower must still promote — it probes the
// better-ranked owner (/cluster/holds), finds it empty, and takes the
// session rather than deadlocking on "not placement primary".
func TestFailoverFallbackPastEmptyOwner(t *testing.T) {
	h := newHarness(t, 2, 1)
	// A session the future member m2 will out-score everyone on.
	var session string
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("fb-%d", i)
		s2 := rendezvousScore("m2", cand)
		if s2 > rendezvousScore("m0", cand) && s2 > rendezvousScore("m1", cand) {
			session = cand
			break
		}
	}
	script := testScript(83, 25, 40)
	ri := h.createSession(session, SessionConfig{Strategies: clusterNames, SyncEvery: 1})
	k := 40
	h.applyEvents(session, script[:k])
	h.shipAll()

	// The primary dies; while it is being detected, m2 joins and
	// out-ranks the surviving follower.
	h.crash(ri.Primary.ID)
	h.addNode(1)
	h.tickAll(4)
	h.reconcileAll()

	pn := h.nodeHosting(session)
	if pn.ID() == ri.Primary.ID || pn.ID() == "m2" {
		t.Fatalf("session promoted on %s; the data-holding follower must take it", pn.ID())
	}
	s, _ := pn.Manager().Get(session)
	assertSessionEquals(t, "fallback-promoted", s, refSession(t, script[:k]), k)

	// Writes continue; the promoted primary ships onward.
	seq := h.seqOf(session)
	h.applyEvents(session, script[seq:])
	s2, _ := h.nodeHosting(session).Manager().Get(session)
	assertSessionEquals(t, "fallback-continued", s2, refSession(t, script), len(script))
}

// TestClusterFullRestart: every member crashes and restarts over its
// surviving WAL directory (a routine full-fleet redeploy). Each member
// recovers its persisted sessions as follower replicas, the promotion
// rule picks the member holding the freshest copy — the former
// primary's own WAL, which with SyncEvery=1 holds every applied event —
// and the cluster resumes serving with zero loss and keeps accepting
// writes.
func TestClusterFullRestart(t *testing.T) {
	h := newHarness(t, 3, 2)
	script := testScript(91, 30, 90)
	h.createSession("restart", SessionConfig{Strategies: clusterNames, SyncEvery: 1, SegmentBytes: 2048})
	k := 70
	h.applyEvents("restart", script[:k])
	h.shipAll()
	// A tail only the primary's own WAL holds (never shipped).
	h.applyEvents("restart", script[k:k+10])

	h.restartAll()
	for i := 0; i < 3; i++ {
		h.reconcileAll()
		h.tickAll(1)
	}

	pn := h.nodeHosting("restart")
	s, _ := pn.Manager().Get("restart")
	// The freshest copy wins: the former primary's WAL had k+10 events
	// durable (SyncEvery=1), so nothing is lost.
	assertSessionEquals(t, "restarted", s, refSession(t, script[:k+10]), k+10)

	// The cluster keeps working: writes continue and replication flows.
	h.applyEvents("restart", script[k+10:])
	h.shipAll()
	s2, _ := h.nodeHosting("restart").Manager().Get("restart")
	assertSessionEquals(t, "post-restart", s2, refSession(t, script), len(script))
	for fid, acked := range h.nodeHosting("restart").AckedOffsets("restart") {
		if acked != len(script) {
			t.Fatalf("post-restart follower %s acked %d, want %d", fid, acked, len(script))
		}
	}
}

// TestRebalanceOnJoin: a member that joins and becomes a session's
// rendezvous primary receives the session by handoff — shipped to
// completion, adopted, old primary demoted to follower — and writes
// continue through the new primary with state intact.
func TestRebalanceOnJoin(t *testing.T) {
	h := newHarness(t, 2, 1)
	// Pick a session ID the future member m2 will out-score everyone
	// on, while one of the current members owns it now.
	var session string
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("rb-%d", i)
		s2 := rendezvousScore("m2", cand)
		if s2 > rendezvousScore("m0", cand) && s2 > rendezvousScore("m1", cand) {
			session = cand
			break
		}
	}
	if session == "" {
		t.Fatal("no candidate session id found")
	}
	script := testScript(71, 30, 60)
	ri := h.createSession(session, SessionConfig{Strategies: clusterNames, SyncEvery: 1})
	k := 60
	h.applyEvents(session, script[:k])
	h.shipAll()

	n2 := h.addNode(1)
	if n2.ID() != "m2" {
		t.Fatalf("new member is %s, want m2", n2.ID())
	}
	h.tickAll(3)
	// First reconcile ships + hands off; run a couple of rounds so the
	// handoff (which needs the adoptee caught up) completes.
	for i := 0; i < 3; i++ {
		h.reconcileAll()
		h.shipAll()
	}

	pn := h.nodeHosting(session)
	if pn.ID() != "m2" {
		t.Fatalf("session still led by %s after rebalance", pn.ID())
	}
	if r := h.route(session); r.Primary.ID != "m2" {
		t.Fatalf("route points at %s, want m2", r.Primary.ID)
	}
	// The old primary demoted to a follower over its own WAL.
	if _, ok := h.nodes[ri.Primary.ID].Manager().GetReplica(session); !ok {
		t.Fatalf("old primary %s is not a follower after handoff", ri.Primary.ID)
	}
	s, _ := pn.Manager().Get(session)
	assertSessionEquals(t, "adopted", s, refSession(t, script[:k]), k)

	// Writes continue through the new primary (any member redirects).
	h.applyEvents(session, script[k:])
	s2, _ := pn.Manager().Get(session)
	assertSessionEquals(t, "after-rebalance", s2, refSession(t, script), len(script))

	// And the new primary replicates onward to its follower set.
	h.shipAll()
	offs := pn.AckedOffsets(session)
	if len(offs) == 0 {
		t.Fatal("new primary ships to nobody")
	}
	for fid, acked := range offs {
		if acked != len(script) {
			t.Fatalf("follower %s acked %d, want %d", fid, acked, len(script))
		}
	}

	// Members outside the session's rendezvous owner set must
	// decommission their replicas (a stale copy must never be
	// promotable after a much later failure).
	h.reconcileAll()
	owners := Owners(session, h.nodes["m2"].Membership().Alive(), 2)
	isOwner := map[MemberID]bool{}
	for _, m := range owners {
		isOwner[m.ID] = true
	}
	for _, id := range h.order {
		if isOwner[id] {
			continue
		}
		if _, ok := h.nodes[id].Manager().GetReplica(session); ok {
			t.Fatalf("non-owner %s still holds a replica after reconcile", id)
		}
	}
}
