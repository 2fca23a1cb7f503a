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
// mark phase boundaries as log offsets. Replaying the log on a fresh
// engine reconstructs an identical one (and, via a subscriber factory,
// identical strategy states); the engine tests pin this contract, which
// the serve WAL and replication rely on.
//
// # Open follow-ons
//
// Concurrent read-only sessions (overlap the strategies' recodings per
// event) remain open; see ROADMAP.md.
package engine
