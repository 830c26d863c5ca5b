// Package idset provides the pooled, allocation-free identifier-set layer
// under the detector protocols: for every node of a simulated network, a
// small hash set mapping 64-bit identifiers to a 32-bit value (a parent
// pointer in color-BFS and the deterministic walk relay, a TTL in the
// k-ball baseline). It is the data structure behind the congestion that
// the paper's threshold τ bounds — MaxLen is exactly the MaxCongestion
// the detectors report.
//
// A Store holds one set per node, each backed by an open-addressing table
// whose slots are stamp-guarded by the store's generation counter:
// Reset(n) bumps the generation, which logically empties every set in O(1)
// without touching the tables. Per-node tables are retained across Reset
// calls, so a Store reused for many invocations on same-sized inputs (the
// way core.ColorBFSPool reuses ColorBFS instances) reaches a steady state
// in which insertions allocate nothing. Every node's first table is
// carved from one shared slab: New gives each node a minimum-size one,
// NewSized sizes node v's for a caller's hint of how many entries its set
// will hold (the deterministic detector derives hints from the graph and
// τ), so a store whose hints cover its sets never grows. A set that
// outgrows its slab region moves to a table of its own, which Trim
// returns to the region once it is more than twice the set's need; Bytes
// counts the whole slab plus the tables grown out of it. The congestion
// watermark is maintained as an O(1) packed atomic rather than an n-wide
// scan.
//
// Concurrency contract: distinct nodes' sets may be operated on
// concurrently (the CONGEST engine runs node handlers in parallel), but a
// single node's set must only be touched by one goroutine at a time, and
// Reset requires exclusive access to the whole Store. This matches the
// engine's execution model, where node u's state is only mutated from u's
// own handler invocation. Iteration order (AppendIDs) is deterministic
// for a fixed insertion history, which the detectors rely on for
// transcript determinism; callers needing a canonical order sort.
package idset
