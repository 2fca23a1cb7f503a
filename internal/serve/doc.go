// Package serve turns the reproduction into a long-running service: a
// multi-tenant session manager hosting many independent simulation
// sessions in one process, each with a durable write-ahead log, crash
// recovery, and lock-free read snapshots.
//
// # Lifecycle
//
// A Manager owns the registry. Manager.Create starts a fresh Session;
// Manager.Open recovers one from its WAL after a crash or restart;
// Manager.Close drains it, writes a final snapshot, and releases it.
// Each session hosts the configured recoding strategies (Minim, CP, BBB
// by default) on one shared incremental engine (internal/engine).
//
// # Writer model and admission control
//
// Every session has exactly ONE writer: a goroutine draining a bounded
// mailbox. Submit/Apply enqueue events; when the mailbox is full they
// fail fast with ErrBackpressure instead of queueing unboundedly — the
// caller (or the HTTP front end, as 429) backs off and retries. The
// single-writer discipline means the engine, the strategies, the WAL,
// and the view publication never need locks of their own.
//
// # Read snapshots
//
// Queries never touch the writer's state. After every applied event the
// writer publishes an immutable View through an atomic pointer swap;
// readers load the pointer and query assignments, per-strategy metrics,
// node configurations, and conflict neighborhoods at their own pace —
// no reader ever blocks the writer or another reader. Views are layered
// copy-on-write maps (shared base + small overlay of recent changes,
// folded at ~2*sqrt(n) entries), so publication costs O(sqrt(n))
// amortized rather than a full O(n) clone per event. Watch subscribes
// to a stream of assignment-change deltas; a subscriber that lags
// beyond its buffer is disconnected and must re-snapshot.
//
// # WAL format and recovery
//
// The WAL is one directory per session holding numbered segment files
// of length-prefixed binary frames in the internal/trace v2 record
// encoding (magic byte, type, uvarint sequence number, uvarint payload
// length; see docs/wal.md for the byte-level spec). A record that does
// not start with the frame magic byte is corruption; cmd/waldump
// exports any log to NDJSON for grep/jq debugging. The log's first
// record is a versioned snapshot (topology + per-strategy assignments
// and metrics at a log position); every further record is one event. A
// record is committed iff its frame is complete — header plus declared
// payload on disk. A torn final record in the active segment is
// truncated on open; a malformed committed record (or a torn record in a sealed segment) is
// corruption and fails loudly. Appends are group-committed (flushed
// when the mailbox drains; Config.SyncEvery forces per-N-event fsync,
// counted across segment boundaries), and Config.SegmentBytes seals the
// active segment — flush, fsync, close — once it reaches that size,
// starting the next-numbered file. Sealed segments are immutable, which
// is what lets WAL shipping (internal/cluster) tail a live log with
// plain offset reads (TailWAL). Every Config.CompactEvery events the
// writer captures a fresh snapshot into the next-numbered segment,
// publishes it by atomic rename, and deletes the sealed segments it
// supersedes; a crash anywhere in between leaves a directory whose
// newest snapshot wins on open.
//
// Recovery (Manager.Open) restores the snapshot directly — the network
// is rebuilt from its configurations, which determine the interference
// digraph exactly, and assignments and metrics are installed verbatim —
// then replays the committed tail through the normal recoding path.
// The result is bit-identical to the pre-crash state and the session
// accepts further events; the recovery tests assert both. A log that
// was never compacted starts with an empty snapshot at sequence zero, so
// its recovery is a replay of the whole history.
//
// Beyond records and events, the log carries compaction-barrier
// records (trace.Barrier): markers that do not advance the sequence
// number and are skipped on replay. A replicated primary writes one
// (Session.MarkCompactBarrier) before an explicit Session.Compact so
// the stream tells every follower where to truncate its own log
// (Replica.CompactBarrier); see docs/wal.md for the full on-disk
// contract. For catch-up transfers, PlanSnapshotTail exposes the
// committed byte ranges from the newest snapshot onward — they
// concatenate into a valid single-segment log — and InstallWAL
// installs such a stream crash-safely in place of an existing
// directory (Manager.InstallReplica wraps both ends for replicas).
//
// # Replicas: the follower half of the cluster story
//
// A Replica (Manager.NewReplica / Manager.OpenReplica /
// Manager.InstallReplica) is a session's continuously recovering
// standby on another process: it has no writer mailbox — Offer appends
// shipped records to the replica's own local WAL, applies them through
// the same recoding path for a warm, lock-free-readable state, fsyncs,
// and only then acknowledges the new offset, so an acked offset is a
// durability promise. Offer deduplicates shipper retries by sequence
// number and rejects gaps with ErrReplicaGap (the cluster layer
// resolves a gap by snapshot catch-up: fetch the primary's newest
// snapshot tail and InstallReplica it). Manager.Promote turns a
// replica into a live primary by running the existing crash-recovery
// path over the replica's WAL: the promoted session is bit-identical
// to the old primary at the acknowledged offset (events beyond it —
// the primary's unacked tail and mailbox residue — are lost, exactly
// as a single-process crash loses its unflushed tail).
//
// Replicas are read capacity as well as durability: View returns the
// same lock-free snapshot a primary's readers use, kept warm by every
// Offer, and Live reports whether the replica still serves (false the
// moment a promotion or decommission closes it — the follower read
// path checks it so a request racing a failover gets a retryable
// rejection, never a frozen stale view). The HTTP read renderers
// (RenderStatus, RenderAssignment, RenderConflicts, RenderMetrics)
// operate on a bare View so the cluster front end serves the identical
// read API — same JSON shapes, same seq tagging — from a follower.
// Placement, shipping, failover orchestration, and the follower-read
// staleness contract (min_seq, wait-or-redirect) live in
// internal/cluster.
//
// # Front ends
//
// cmd/cdmaserved exposes the manager over HTTP/JSON (NewHandler) and,
// with -cluster, joins a fleet of such processes (internal/cluster);
// cmd/cdmasim -serve-sessions runs a load-generator mode driving many
// concurrent sessions with IPPP hot-spot traffic, and -cluster-smoke
// runs an in-process cluster that keeps writing through a failover.
package serve
