package cluster

import (
	"log/slog"

	"repro/internal/obs"
)

// nodeObs is the cluster layer's observability bundle, resolved once at
// NewNode. With nothing attached every metric and trace point is a
// nil-receiver no-op, mirroring the serve layer's contract; log is never
// nil (NewNode defaults it).
type nodeObs struct {
	reg *obs.Registry
	hub *obs.TraceHub
	log *slog.Logger

	gossipRounds *obs.Counter // cluster_gossip_rounds_total
	membersAlive *obs.Gauge   // cluster_members_alive
	memberFails  *obs.Counter // cluster_member_fail_total
	memberJoins  *obs.Counter // cluster_member_join_total

	leaderYields *obs.Counter // cluster_leader_yield_total

	failoverLat     *obs.Histogram // cluster_failover_seconds
	handoffLat      *obs.Histogram // cluster_handoff_seconds
	barrierPrimary  *obs.Histogram // cluster_barrier_compact_seconds{role="primary"}
	barrierFollower *obs.Histogram // cluster_barrier_compact_seconds{role="follower"}
	skewClamped     *obs.Counter   // trace_skew_clamped_total
}

func newNodeObs(reg *obs.Registry, hub *obs.TraceHub, log *slog.Logger) nodeObs {
	no := nodeObs{reg: reg, hub: hub, log: log}
	if reg == nil {
		return no
	}
	no.gossipRounds = reg.Counter("cluster_gossip_rounds_total", "gossip rounds driven by this member")
	no.membersAlive = reg.Gauge("cluster_members_alive", "members currently considered live (self included)")
	no.memberFails = reg.Counter("cluster_member_fail_total", "peers transitioned live to dead by the failure detector")
	no.memberJoins = reg.Counter("cluster_member_join_total", "peers transitioned dead (or unknown) to live")
	no.leaderYields = reg.Counter("cluster_leader_yield_total", "led sessions yielded after a leadership conflict (a healed partition's lower epoch steps down and rebuilds from the winner)")
	no.failoverLat = reg.Histogram("cluster_failover_seconds", "time to promote a replica to primary (crash-recovery replay included)", nil)
	no.handoffLat = reg.Histogram("cluster_handoff_seconds", "time to hand a led session to its new rendezvous primary (freeze, final ship, adopt, demote)", nil)
	no.barrierPrimary = reg.Histogram("cluster_barrier_compact_seconds", "barrier-to-compaction latency", obs.DefLatencyBuckets, "role", "primary")
	no.barrierFollower = reg.Histogram("cluster_barrier_compact_seconds", "barrier-to-compaction latency", obs.DefLatencyBuckets, "role", "follower")
	no.skewClamped = reg.Counter("trace_skew_clamped_total", "cross-member trace spans whose aligned timestamps violated ship/ack causality and were clamped by the trace collector")
	return no
}

// forCatchup resolves the snapshot catch-up counters for one session
// (follower side: a transfer installed here).
func (no *nodeObs) forCatchup(session string) (count, bytes *obs.Counter) {
	if no.reg == nil {
		return nil, nil
	}
	return no.reg.Counter("cluster_catchup_total", "snapshot catch-up transfers installed on this member", "session", session),
		no.reg.Counter("cluster_catchup_bytes_total", "bytes received in snapshot catch-up transfers", "session", session)
}

// shipperObs holds one replication link's metric children — one set per
// (session, follower) pair, resolved when the shipper is created. The
// zero value is the uninstrumented no-op state; none of these updates
// sit inside shipper.next (the zero-alloc batch-assembly path).
type shipperObs struct {
	lagRecords *obs.Gauge      // cluster_ship_lag_records
	lagSeconds *obs.FloatGauge // cluster_ship_lag_seconds
	batches    *obs.Counter    // cluster_ship_batches_total
	records    *obs.Counter    // cluster_ship_records_total
	rtt        *obs.Histogram  // cluster_ship_rtt_seconds
	tracer     *obs.Tracer     // the SESSION's ring (primary side)
}

// forShipper resolves the replication-lag SLI children for one
// (session, follower) link.
func (no *nodeObs) forShipper(session string, follower MemberID) shipperObs {
	so := shipperObs{}
	if no.reg != nil {
		so.lagRecords = no.reg.Gauge("cluster_ship_lag_records", "records the follower's ack trails the primary's log by", "session", session, "follower", string(follower))
		so.lagSeconds = no.reg.FloatGauge("cluster_ship_lag_seconds", "age of the oldest record the follower has not acknowledged", "session", session, "follower", string(follower))
		so.batches = no.reg.Counter("cluster_ship_batches_total", "ship batches acknowledged by the follower", "session", session, "follower", string(follower))
		so.records = no.reg.Counter("cluster_ship_records_total", "event records acknowledged by the follower", "session", session, "follower", string(follower))
		so.rtt = no.reg.Histogram("cluster_ship_rtt_seconds", "round-trip time of one acknowledged ship batch (follower append+apply+fsync included)", nil, "session", session, "follower", string(follower))
	}
	so.tracer = no.hub.Tracer(session)
	return so
}
