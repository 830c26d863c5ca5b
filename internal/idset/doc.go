// Package idset provides the pooled, allocation-free identifier-set layer
// under the detector protocols: for every node of a simulated network, a
// small hash set mapping identifiers to a value (a parent pointer in
// color-BFS and the deterministic walk relay, a TTL in the k-ball
// baseline). It is the data structure behind the congestion that the
// paper's threshold τ bounds — MaxLen is exactly the MaxCongestion the
// detectors report.
//
// # Slots and domain
//
// A set is an open-addressing table of 8-byte slots, each one uint64
// packing id+1 in its high 36 bits above the value in its low 28. An
// empty slot is 0, which no entry packs to, id 0 with value 0 included.
// Identifiers therefore lie below 2^36−1 and values in [0, 2^28); an
// entry outside that domain panics. The callers fit it as they are: a
// deterministic walk key is a 28-bit source above a 6-bit length,
// color-BFS stores seed IDs, and both store sender node IDs (below
// congest.MaxNodes, 2^28) as values; the k-ball baseline keys an edge
// by its CSR arc index and stores a TTL. A table
// of any length is indexed by the multiply-shift of the hash's high 32
// bits and probed linearly, and an insert that would take it past ⅞ load
// grows it first, so every probe ends at an empty slot.
//
// # Generations
//
// Reset(n) empties every set in O(1) by bumping the store's generation.
// Node v's meta entry packs the generation its set was last written in
// with the set's live count (and a grown flag): a set whose generation is
// stale reads as empty, and the first write of a new generation clears
// its table before inserting. Slots carry no generation of their own.
// Tables are retained across Reset calls, so a Store reused for many
// invocations on same-sized inputs (the way core.ColorBFSPool reuses
// ColorBFS instances) reaches a steady state in which insertions
// allocate nothing.
//
// # Layout
//
// Every node's first table is carved from one shared slab: New gives each
// node a minimum-size one, NewSized sizes node v's to the fewest slots
// that hold a caller's hint of how many entries its set will take at ⅞
// load (the deterministic detector derives hints from the graph and τ),
// so a store whose hints cover its sets never grows. A set that outgrows
// its slab region moves to a table of its own, indexed per node by a
// table that exists only while some set has grown; Trim returns a grown
// table to its region once it is more than twice the set's need. Bytes
// counts the meta entries and slab offsets, the whole slab, the grown
// tables and their index. The congestion watermark is one packed word
// updated on insert rather than an n-wide scan.
//
// Concurrency contract: a Store is not safe for concurrent use; one
// goroutine at a time may touch it. This matches the CONGEST engine,
// which runs a session's handlers one at a time on the session's
// goroutine, and the detectors, which give every concurrent trial its
// own stores. Iteration order (AppendIDs) is
// deterministic for a fixed insertion history, which the detectors rely
// on for transcript determinism; callers needing a canonical order sort.
package idset
