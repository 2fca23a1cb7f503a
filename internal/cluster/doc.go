// Package cluster turns a set of cdmaserved processes into one fleet:
// every session has a single primary and R follower replicas, placed by
// rendezvous hashing over a gossip-maintained membership table, with
// the primary's per-session WAL (the internal/trace record encoding)
// shipped to followers over HTTP, reads served by primary AND
// followers, and failover by promoting the next rendezvous owner
// through the existing crash-recovery path.
//
// # Membership
//
// Liveness is tracked without a central coordinator, in the style of
// gossip membership protocols (cf. Brahms): each member keeps a table
// of (member, address, heartbeat counter) rows, bumps its own counter
// every tick, and push-pulls its table with a few random live peers.
// Rows merge by taking the higher heartbeat. A member whose heartbeat
// has not advanced for FailAfter local ticks is considered dead and
// drops out of the alive set; if it returns, its advancing heartbeat
// resurrects it. Ticks are explicit (the daemon loop drives them on a
// timer; tests drive them synchronously), so failure detection is
// deterministic under test.
//
// # Placement
//
// Owners of a session are chosen by rendezvous (highest-random-weight)
// hashing: every member is scored by a hash of (member ID, session ID)
// and the R+1 highest-scoring live members own the session — the first
// as primary, the rest as followers. Rendezvous hashing gives minimal
// disruption: a member's death reassigns only the sessions it owned,
// and a joining member steals only the sessions it now scores highest
// on (moved there by an explicit handoff, never by a unilateral grab).
//
// # Replication: one shared feed, acknowledged offsets
//
// The primary applies writes exactly as a single-process session does
// (internal/serve: single-writer mailbox, durable segmented WAL). ONE
// reader per session — the walFeed — tails the session's WAL
// (serve.TailWALLimit over immutable sealed segments plus the active
// segment's committed prefix) and decodes each record exactly once
// into a bounded in-memory window; every follower's shipper is just a
// cursor into that window, so N followers cost one file read and one
// encode per record, not N. Shippers POST bounded batches; the
// follower hosts a serve.Replica — a continuously recovering standby
// with no writer mailbox: it appends the records to its own local WAL,
// applies them through the normal recoding path for a warm state,
// fsyncs, and only then acknowledges the new offset. The acknowledged
// offset is therefore a durability fact: everything at or below it
// survives a follower crash, torn tails and all, under the exact rules
// PR 3 proved for single-process recovery. Duplicate batches (shipper
// retries) deduplicate by sequence number.
//
// # Snapshot catch-up
//
// A follower that cannot be shipped forward — it holds nothing (late
// joiner), or the batch leaves a gap because its copy predates what
// the feed retains or the primary has truncated — catches up by
// SNAPSHOT TRANSFER instead of full-log replay: it fetches GET
// /cluster/snapshot/{id} from the primary (the committed byte ranges
// from the newest snapshot segment onward, which concatenate into a
// valid single-segment log; X-Snapshot-Seq announces the seq the
// stream reconstructs), installs it atomically in place of its old
// copy (serve.InstallWAL: temp dir, park, rename, verify), and
// acknowledges the installed seq. The primary never buffers a behind
// follower's backlog beyond the feed's bounded window.
//
// # Coordinated compaction
//
// Cluster sessions never self-compact; truncation is driven by the
// primary's node so it can never race the feed or strand a lagging
// replica. With SessionConfig.CompactEvery > 0, each fully quiesced
// ship round (feed caught up to the session, every follower acked
// exactly the current seq) advances a two-step state machine: first a
// compaction-barrier record is written at the current seq and shipped
// in-stream — each follower past the barrier appends it to its own log
// and compacts behind it — then, a later quiesced round, the primary
// compacts too. Anyone who missed the barrier is covered by snapshot
// catch-up. See docs/wal.md for the on-disk format.
//
// # Follower-served reads and the staleness contract
//
// Any member answers GET /v1/sessions/{id}[/assignment|conflicts|
// metrics] for a session it FOLLOWS directly from its replica's warm
// lock-free view — replicas are read capacity, not just durability.
// The contract:
//
//   - Every read response carries the applied sequence number ("seq"
//     in the body); follower-served answers add X-Read-From: follower
//     and X-Member naming the serving member. Staleness is therefore
//     always observable, never silent.
//   - ?min_seq=N bounds staleness: the serving member waits (up to
//     ?wait_ms=, default 2000, capped 10000) for its view to reach N.
//     On timeout a follower hands the client to the live primary with
//     a 307; when no live primary exists to hand over to — including
//     N beyond anything applied anywhere — the answer is a bounded,
//     retryable 503, never a hang and never a stale 200.
//   - During a promotion or decommission window (the replica is
//     closed but the session not yet registered) a follower answers
//     503-retryable rather than serving a frozen view. A client that
//     chains min_seq = last seen seq therefore never observes seq
//     regress, even across a mid-run primary kill — the failover soak
//     and cdmasim -cluster-smoke assert exactly this.
//   - GET /cluster/route?session=S&read=1 nominates a read target
//     round-robin across the whole owner set (primary + followers),
//     the intended way to spread read load.
//   - Writers resuming after a failover must read a PRIMARY-served
//     status (no X-Read-From tag): a follower's status reports the
//     replica's own applied seq, and resuming writes from it would
//     double-apply whatever that replica had not yet been shipped.
//
// # Failover and rebalance
//
// When the membership table declares a primary dead, the next
// rendezvous owner that holds a replica promotes it: the warm standby
// is discarded and the replica's local WAL is re-opened through the
// same crash-recovery path a restarted process would use, yielding a
// session bit-identical to the dead primary at the replica's last
// acknowledged offset. A data-holding owner out-ranked by a member
// that joined mid-failover (and so holds nothing) still promotes: it
// probes better-ranked owners (GET /cluster/holds) and defers only to
// one that actually serves or replicates the session. Replicas
// stranded outside the owner set are decommissioned once the session
// is demonstrably healthy elsewhere (the /cluster/holds probe — NOT
// the /v1 read path, which followers also answer 200 on), so a stale
// orphan can never be promoted later and roll back acknowledged
// writes. The promoted node then ships to the new follower set.
// Clients discover the new primary through GET /cluster/route (and
// are 307-redirected by any member they ask); they resume writing
// from the promoted session's primary-served sequence number. When a
// member joins and becomes rendezvous primary of an existing session,
// the current primary hands off: it freezes writes, ships the closed
// log to completion, asks the new owner to adopt (promote) it, then
// demotes itself to a follower over its own WAL — writes continue at
// the new primary.
//
// # What failover guarantees — and what it does not
//
// Promotion preserves exactly the acknowledged prefix: assignments,
// digraphs, and per-strategy metrics (including RecodingsByKind) equal
// the failed primary's state at the last acked WAL offset, bit for bit.
// Events the primary accepted but had not yet shipped-and-acked —
// mailbox residue and the unacked WAL tail — are lost, exactly as a
// single-process crash loses its unflushed tail; clients that need an
// event to survive failover must see it reflected in the follower acked
// offsets first (or resubmit from the promoted seq, which the load
// generator and the failover tests do). Split-brain is avoided by the
// handoff protocol, not by consensus: this is a deterministic
// reproduction harness, not a Paxos implementation, and the membership
// table is authoritative for the tests' failure model (full process
// crashes, no partitions).
//
// # Operator runbook
//
// Starting a member:
//
//		cdmaserved -cluster -id <stable-id> -addr <host:port> -dir <wal-root>
//		           [-join <existing-member>] [-replicas R] [-interval 500ms]
//
//	  - -id must be stable across restarts and unique in the fleet; the
//	    WAL root must persist across restarts (it holds every session's
//	    log and a .cfg sidecar per session).
//	  - -replicas is R, followers per session (R+1 owners). All members
//	    should agree on it.
//	  - -interval paces the daemon loop: one gossip tick + one ship
//	    round + one reconcile step per interval. Failure detection takes
//	    FailAfter (default 3) silent ticks, so expect promotion roughly
//	    (FailAfter+1)×interval after a primary dies.
//
// Restart behavior: on boot a member re-registers every persisted
// session as a FOLLOWER (Node.Recover) — leadership is re-derived by
// Reconcile's promotion rule (freshest copy wins, placement rank
// breaks ties), never assumed from a previous life. A full-fleet
// kill-9 restart over surviving WAL directories recovers with zero
// acknowledged-write loss.
//
// Session knobs (POST /cluster/sessions config): sync_every 1 makes
// every accepted event durable before the HTTP response (the failover
// tests run this way); segment_bytes bounds segment files (ship batch
// and catch-up granularity); compact_every enables coordinated
// truncation for engine-backed sessions — without it a cluster
// session's log grows forever.
//
// What to monitor: every member serves GET /metrics (Prometheus text
// exposition; see docs/observability.md for the full catalog). The
// SLIs that matter for this runtime:
//
//   - cluster_ship_lag_records / cluster_ship_lag_seconds, labeled
//     (session, follower) on the PRIMARY: how far each replication
//     link is behind, in records and in wall time since the lagging
//     record was accepted. A dead-but-not-yet-detected follower shows
//     here first — lag climbs while gossip still counts it alive.
//   - cluster_members_alive vs the fleet size you deployed, and
//     cluster_member_fail_total for detection events.
//   - cluster_failover_seconds / cluster_handoff_seconds: promotion
//     and handoff durations, as histograms.
//   - serve_view_seq per session (the applied high-water mark; compare
//     across members for replication progress).
//   - cluster_catchup_total / cluster_catchup_bytes_total: snapshot
//     transfers — a steadily climbing count means some follower can
//     never hold a ship link.
//   - serve_backpressure_total (admission 429s) and serve_apply_seconds
//     / serve_fsync_seconds quantiles for write-path health.
//
// Fleet-wide: any member answers GET /cluster/metrics with a merged
// exposition for the whole fleet — counters and histograms summed,
// gauges folded to their max, cluster_members_alive re-labelled per
// member, and a synthetic cluster_member_up{member} gauge (0 for
// members gossip knows about that did not answer the scrape). Point
// one scrape job, or cmd/cdmatop, at a single member and see
// everything. GET /slo on each member reports its SLO verdicts
// (docs/observability.md, "SLOs"); a breached critical objective —
// such as canary-availability when the daemon runs with -canary —
// degrades that member's /readyz until the window recovers. The
// canary itself (-canary, internal/canary) probes a synthetic session
// through the public API every second and publishes canary_* SLIs,
// including canary_failover_blackout_seconds: the client-visible
// write-unavailability window around a failover, measured rather than
// inferred.
//
// For liveness and placement snapshots, /cluster/members,
// /cluster/route, and /cluster/holds/{id} remain the structural views;
// follower read headers (X-Read-From) plus body seq track per-request
// staleness. Per-event timing is on GET /debug/trace/{session} (the
// enqueue → apply → view-publish → fsync → ship → follower-ack stage
// ring); CPU and heap profiles are on /debug/pprof/ when the daemon
// runs with -pprof.
//
// What is NOT guaranteed: writes during the failover window fail
// retryably (503/redirect churn) until promotion completes; unacked
// tails are lost (see above); network partitions are out of scope —
// a partitioned member that keeps serving stale follower reads will
// still never violate a min_seq bound, but its wait-then-503 is the
// only protection, and split-brain writes are prevented only by the
// crash-stop assumption.
package cluster
