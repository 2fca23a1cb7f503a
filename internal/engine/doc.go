// Package engine is the shared incremental network engine: the single
// owner of the adhoc.Network replica a simulation run operates on, and
// the event-sourced pipeline that drives any number of recoding
// strategies over it.
//
// # Why one replica
//
// The paper's point is *minimal* incremental recoding, but the original
// harness paid non-incremental costs around it: every strategy (Minim,
// CP, BBB) maintained its own adhoc.Network copy, so a Fig-10 run
// decoded each reconfiguration event three times — three candidate
// scans, three partition computations, three digraph rewires — for one
// logical topology change. The topology maintenance is
// strategy-independent (only the code assignments differ), so the engine
// hoists it: one network, one decode per event, N subscribers.
//
// # Delta flow
//
// Step is the single decoder. For an event it
//
//  1. captures the strategy-independent pre-state (the Fig 2 partition
//     at the event configuration for joins and moves, the conflict
//     neighborhood before a power change, the previous configuration),
//  2. applies the topology change to the network, and
//  3. captures the post-state (the conflict neighborhood after a power
//     raise).
//
// The result is a Delta. Subscribers receive the Delta plus read access
// to the shared network and perform only assignment work; they must not
// mutate the topology. Hosting on an engine is the only way a strategy
// runs: a single strategy is an engine with one subscriber.
//
// # Event sourcing
//
// The engine appends every applied event to an ordered log. Sessions
// mark phase boundaries as log offsets, and Replay reconstructs an
// identical engine (and, via the subscriber factory, identical strategy
// states) from the log alone — the basis for sharding runs across
// workers and serving concurrent read-only sessions later.
//
// # Sharded runs
//
// internal/shard partitions a run across engines by arena region: one
// engine (with its own subscriber set) per region of a configurable
// grid, executing on worker goroutines, plus a global mirror engine
// kept current for every event. The routing rule is geometric: an event
// at position p reads colors only within 3*Rmax of p and recolors only
// within Rmax (Rmax the monotone maximum range; the shard package doc
// derives this form of the paper's Thm 4.1.10), so an event whose
// 3*Rmax ball lies inside its region runs concurrently on that region's
// shard, while an event whose ball crosses a region border is escalated
// to the serialized border lane: all shard workers drain (barrier),
// buffered shard recodings fold into per-strategy global assignments,
// and the event executes on the mirror with writebacks to the owning
// shards. Each shard engine's append-only log plus the mirror's
// total-order log make the whole run deterministically replayable
// (internal/shard's tests rebuild runs from the mirror log), and
// sharded results are bit-identical to a
// single-engine run — the differential tests in internal/shard assert
// identical digraphs, assignments, and metrics at every phase boundary.
// Centralized strategies (BBB recolors the whole conflict graph) run on
// a dedicated full-replica lane fed every event in order.
//
// CommitTopology is the engine-side seam the coordinator uses: it
// applies and logs an event without the Delta captures or subscriber
// fanout (mirror updates for interior events, whose recoding happens on
// the owning shard, and topology writebacks to the shards after a
// border event).
//
// # Open follow-ons
//
// Concurrent read-only sessions (overlap the strategies' recodings per
// event) remain open; see ROADMAP.md.
package engine
