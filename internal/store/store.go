package store

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
)

// The store's error taxonomy. ErrCorrupt is the loud one: it means the
// durable files hold acknowledged state this build can no longer trust,
// and the only safe reactions are operator intervention or restore from
// a replica — never a silent repair.
var (
	// ErrCorrupt marks unrecoverable damage in the snapshot or mid-file
	// in the journal. (A torn journal TAIL is not corruption: it is the
	// expected residue of a crash mid-append and is truncated with a
	// logged warning on open.)
	ErrCorrupt = errors.New("store: corrupt data")
	// ErrExists is returned by Create for a name already in the corpus.
	ErrExists = errors.New("store: graph already exists")
	// ErrNotFound is returned by AddEdges/Delete for an unknown name.
	ErrNotFound = errors.New("store: unknown graph")
	// ErrTooLarge rejects a mutation whose journal record — or whose
	// resulting graph's compaction-time snapshot record — would exceed
	// the on-disk frame cap. Enforced BEFORE anything is written, so the
	// store never acknowledges state that recovery would later refuse as
	// corrupt; the mutation simply fails and the store stays usable.
	ErrTooLarge = errors.New("store: graph too large for durable storage")
	// ErrFailed poisons a store whose journal write or fsync failed: the
	// on-disk suffix is unknowable, so every later mutation is refused
	// until the store is reopened (recovery truncates any torn tail).
	ErrFailed = errors.New("store: store failed; reopen to recover")
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("store: store is closed")
)

// errFsyncInjected is what the fsync-fail faultpoint surfaces in place
// of a real fsync error.
var errFsyncInjected = errors.New("store: injected fsync failure")

// The file names inside a store directory.
const (
	walName     = "corpus.wal"
	snapName    = "corpus.snap"
	snapTmpName = "corpus.snap.tmp"
)

// DefaultCompactThreshold is the journal size that triggers automatic
// snapshot compaction when Options.CompactThreshold is zero.
const DefaultCompactThreshold = 4 << 20

// Options tunes a Store. The zero value is usable: no fsync (page-cache
// durability — survives process death, not power loss), default
// compaction threshold, log.Printf warnings.
type Options struct {
	// Fsync, when true, fsyncs the journal before a mutation is
	// acknowledged: acknowledged state then survives power loss, not just
	// process death. A failed fsync fails the mutation AND poisons the
	// store (ErrFailed) — after a rejected fsync the kernel may have
	// discarded the dirty pages, so no later write can be trusted.
	Fsync bool
	// CompactThreshold is the journal byte size beyond which a mutation
	// triggers snapshot compaction. 0 means DefaultCompactThreshold;
	// negative disables automatic compaction (Compact still works).
	CompactThreshold int64
	// Logf receives recovery warnings (e.g. torn-tail truncation). Nil
	// means log.Printf.
	Logf func(format string, args ...any)
}

// Observer receives passive measurements of the store's durability
// work. Any field may be nil. Hooks run with the store lock held — they
// must be cheap and must not call back into the store; feeding an
// atomic histogram (internal/obs) is the intended use.
type Observer struct {
	// Append receives the framed byte size of every journaled record.
	Append func(bytes int)
	// Fsync receives the duration of every journal fsync on the append
	// path (only fired when Options.Fsync is on).
	Fsync func(d time.Duration)
	// Compact receives the duration of every successful compaction.
	Compact func(d time.Duration)
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Graphs is the number of corpus graphs; LastSeq the sequence number
	// of the newest applied mutation.
	Graphs  int    `json:"graphs"`
	LastSeq uint64 `json:"last_seq"`
	// WALBytes is the current journal file size (magic included);
	// Appended counts mutations journaled by this process and
	// Compactions the snapshots it has taken.
	WALBytes    int64 `json:"wal_bytes"`
	Appended    int64 `json:"appended"`
	Compactions int64 `json:"compactions"`
	// Recovered counts journal records replayed at Open; TornTail
	// reports whether Open truncated a torn journal tail.
	Recovered int64 `json:"recovered"`
	TornTail  bool  `json:"torn_tail"`
	// Fsync echoes Options.Fsync.
	Fsync bool `json:"fsync"`
}

// Store is a crash-safe named-graph corpus: an in-memory map of
// immutable graphs backed by a checksummed append-only journal plus a
// compacted snapshot. Every mutation is durable in the journal before it
// is acknowledged (applied in memory and returned to the caller), so
// after ANY crash — kill -9 included — Open rebuilds exactly the
// acknowledged corpus, bit-for-bit (equal fingerprints). Safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	graphs map[string]*graph.Graph
	// edgeBytes[name] is the encoded size of graphs[name]'s canonical
	// edge list, its count excluded: what snapshotSize prices a graph's
	// snapshot record from, without materializing the list. Set at
	// create and at recovery, and grown by the edges each append adds.
	edgeBytes map[string]int
	seq       uint64
	wal       *os.File
	walSize   int64
	payload   []byte // scratch: encoded record payload
	scratch   []byte // scratch: framed payload (header + payload copy)
	failed    error  // non-nil once a journal write/fsync failed
	closed    bool

	appended    int64
	compactions int64
	recovered   int64
	tornTail    bool

	observer *Observer // nil when unobserved; read under mu
}

// Open opens (or initializes) the store in dir, replaying snapshot and
// journal into memory. A torn journal tail — the residue of a crash in
// the middle of an append — is truncated with a warning through
// Options.Logf; mid-file damage fails with ErrCorrupt.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A leftover temporary snapshot is an interrupted compaction that
	// never reached the rename: the previous snapshot+journal pair is
	// complete without it.
	if err := os.Remove(filepath.Join(dir, snapTmpName)); err == nil {
		opts.Logf("store: removed incomplete snapshot %s (crash during compaction)", snapTmpName)
	}

	graphs, seq, err := loadSnapshotFile(filepath.Join(dir, snapName))
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, opts: opts, graphs: graphs, seq: seq}
	if err := st.recoverWAL(); err != nil {
		return nil, err
	}
	st.edgeBytes = make(map[string]int, len(st.graphs))
	for name, g := range st.graphs {
		st.edgeBytes[name] = encodedEdgeBytes(g)
	}
	return st, nil
}

// recoverWAL scans the journal, replays every record newer than the
// snapshot, truncates a torn tail, and leaves st.wal open for appends.
func (st *Store) recoverWAL() error {
	path := filepath.Join(st.dir, walName)
	data, err := os.ReadFile(path)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return err
	}

	good := 0
	if !fresh {
		if len(data) < magicLen {
			// Shorter than the magic: only legal as the residue of a crash
			// between journal reset and the magic write (or mid-magic). A
			// prefix that disagrees with the magic is someone else's file.
			if string(data) != string(walMagic[:len(data)]) {
				return fmt.Errorf("%w: journal %s: bad magic", ErrCorrupt, path)
			}
			st.opts.Logf("store: journal %s torn inside the magic header; rewriting", walName)
			fresh = true
		} else if [magicLen]byte(data[:magicLen]) != walMagic {
			return fmt.Errorf("%w: journal %s: bad magic", ErrCorrupt, path)
		}
	}
	if !fresh {
		payloads, g, torn, err := scanFrames(data[magicLen:])
		if err != nil {
			return fmt.Errorf("journal %s: %w", path, err)
		}
		good = magicLen + g
		for _, p := range payloads {
			rec, err := decodeRecord(p)
			if err != nil {
				return fmt.Errorf("journal %s: %w", path, err)
			}
			if rec.seq <= st.seq {
				// Already covered by the snapshot: the residue of a crash
				// between snapshot rename and journal reset.
				continue
			}
			if err := applyRecord(st.graphs, rec); err != nil {
				return fmt.Errorf("%w: journal %s: replaying seq %d: %v", ErrCorrupt, path, rec.seq, err)
			}
			st.seq = rec.seq
			st.recovered++
		}
		if torn {
			st.tornTail = true
			st.opts.Logf("store: journal %s: truncating torn tail at offset %d (crash mid-append; %d bytes dropped)",
				walName, good, len(data)-good)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if fresh {
		good = 0 // rewrite from scratch, magic included
	}
	if fresh || good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return err
		}
	}
	if good < magicLen {
		if _, err := f.WriteAt(walMagic[:], 0); err != nil {
			f.Close()
			return err
		}
		good = magicLen
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(st.dir); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return err
	}
	st.wal = f
	st.walSize = int64(good)
	return nil
}

// applyRecord applies one journaled mutation to a corpus map, using the
// exact copy-on-write construction the live mutation path uses — which
// is what makes recovered fingerprints byte-equal to the acknowledged
// ones.
func applyRecord(graphs map[string]*graph.Graph, rec *record) error {
	switch rec.op {
	case opCreate:
		if _, dup := graphs[rec.name]; dup {
			return fmt.Errorf("create %q: already exists", rec.name)
		}
		graphs[rec.name] = graph.FromEdges(rec.n, rec.edges)
	case opAddEdges, opAddEdgesFP:
		g, ok := graphs[rec.name]
		if !ok {
			return fmt.Errorf("add-edges %q: unknown graph", rec.name)
		}
		if rec.op == opAddEdgesFP && g.Fingerprint() != rec.parent {
			// The record acknowledges a mutation of a SPECIFIC parent
			// graph; a recovered parent with a different fingerprint means
			// the chain on disk diverges from the acknowledged history.
			return fmt.Errorf("add-edges %q: parent fingerprint %s does not match recovered graph %s",
				rec.name, rec.parent, g.Fingerprint())
		}
		ng, err := g.WithEdges(rec.edges)
		if err != nil {
			return fmt.Errorf("add-edges %q: %v", rec.name, err)
		}
		graphs[rec.name] = ng
	case opDelete:
		if _, ok := graphs[rec.name]; !ok {
			return fmt.Errorf("delete %q: unknown graph", rec.name)
		}
		delete(graphs, rec.name)
	default:
		return fmt.Errorf("unknown op %d", rec.op)
	}
	return nil
}

// Get returns the current immutable graph value for name. The returned
// graph never changes; a later mutation installs a NEW value under the
// name, so holders of this pointer keep a consistent snapshot.
func (st *Store) Get(name string) (*graph.Graph, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	g, ok := st.graphs[name]
	return g, ok
}

// Names returns the sorted corpus names.
func (st *Store) Names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, 0, len(st.graphs))
	for name := range st.graphs {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Create durably installs a new named graph. ErrExists if the name is
// taken.
func (st *Store) Create(name string, g *graph.Graph) error {
	if name == "" || len(name) > MaxNameLen || g == nil {
		return fmt.Errorf("store: create needs a name (≤ %d bytes) and a graph", MaxNameLen)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.usable(); err != nil {
		return err
	}
	if _, dup := st.graphs[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	// The create record carries the full graph, and its snapshot record
	// (same fields, seq 0) can only be smaller — one size check covers
	// both the journal frame and every future compaction.
	rec := record{seq: st.seq + 1, op: opCreate, name: name, n: g.NumNodes(), edges: g.Edges()}
	if s := rec.size(); s > maxRecordPayload {
		return fmt.Errorf("%w: %q: create record encodes to %d bytes (cap %d)", ErrTooLarge, name, s, maxRecordPayload)
	}
	if err := st.appendLocked(&rec); err != nil {
		return err
	}
	st.graphs[name] = g
	st.edgeBytes[name] = edgesSize(rec.edges) - uvarintLen(uint64(len(rec.edges)))
	st.maybeCompactLocked()
	return nil
}

// AddEdges durably appends undirected edges to the named graph and
// returns the NEW graph value (copy-on-write: the old value is untouched
// and keeps its fingerprint). The journal record carries the parent
// graph's fingerprint, which replay verifies before applying the delta.
// A no-op batch (every edge already present) returns the CURRENT graph
// pointer unchanged and journals nothing — the WAL does not grow.
// ErrNotFound for an unknown name.
func (st *Store) AddEdges(name string, edges [][2]graph.NodeID) (*graph.Graph, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.usable(); err != nil {
		return nil, err
	}
	g, ok := st.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ng, err := g.WithEdges(edges)
	if err != nil {
		return nil, err
	}
	if ng == g {
		return g, nil
	}
	rec := record{seq: st.seq + 1, op: opAddEdgesFP, name: name, edges: edges, parent: g.Fingerprint()}
	if s := rec.size(); s > maxRecordPayload {
		return nil, fmt.Errorf("%w: %q: add-edges record encodes to %d bytes (cap %d)", ErrTooLarge, name, s, maxRecordPayload)
	}
	// The delta record may be tiny while the merged graph has outgrown
	// what one snapshot record can hold — price the whole graph as
	// compaction will have to write it, or the acknowledged state would
	// become un-snapshottable.
	edgeBytes := st.edgeBytes[name] + addedEdgeBytes(g, edges)
	if s := snapshotSize(name, ng, edgeBytes); s > maxRecordPayload {
		return nil, fmt.Errorf("%w: %q: graph would encode to a %d-byte snapshot record (cap %d)", ErrTooLarge, name, s, maxRecordPayload)
	}
	if err := st.appendLocked(&rec); err != nil {
		return nil, err
	}
	st.graphs[name] = ng
	st.edgeBytes[name] = edgeBytes
	st.maybeCompactLocked()
	return ng, nil
}

// Delete durably removes the named graph. ErrNotFound for an unknown
// name.
func (st *Store) Delete(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.usable(); err != nil {
		return err
	}
	if _, ok := st.graphs[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	rec := record{seq: st.seq + 1, op: opDelete, name: name}
	if err := st.appendLocked(&rec); err != nil {
		return err
	}
	delete(st.graphs, name)
	delete(st.edgeBytes, name)
	st.maybeCompactLocked()
	return nil
}

// snapshotSize is the exact size of g's snapshot record under name,
// given the encoded size of its edge list (see Store.edgeBytes).
func snapshotSize(name string, g *graph.Graph, edgeBytes int) int {
	head := record{op: opCreate, name: name, n: g.NumNodes()}
	return head.size() - uvarintLen(0) + uvarintLen(uint64(g.NumEdges())) + edgeBytes
}

// encodedEdgeBytes is the encoded size of g's canonical edge list (the
// pairs u < v, the order Graph.Edges lists them in), its count excluded.
func encodedEdgeBytes(g *graph.Graph) int {
	n := 0
	for u := range graph.NodeID(g.NumNodes()) {
		for _, v := range g.Neighbors(u) {
			if u < v {
				n += uvarintLen(uint64(u)) + uvarintLen(uint64(v))
			}
		}
	}
	return n
}

// addedEdgeBytes is the encoded size of the edges that adding edges to
// g actually adds: canonical pairs, self-loops and duplicates dropped,
// and pairs g already holds left out.
func addedEdgeBytes(g *graph.Graph, edges [][2]graph.NodeID) int {
	n := graph.NodeID(g.NumNodes())
	added := make([][2]graph.NodeID, 0, len(edges))
	for _, e := range edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if u != v && (v >= n || !g.HasEdge(u, v)) {
			added = append(added, [2]graph.NodeID{u, v})
		}
	}
	slices.SortFunc(added, func(a, b [2]graph.NodeID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	bytes := 0
	for _, e := range slices.Compact(added) {
		bytes += uvarintLen(uint64(e[0])) + uvarintLen(uint64(e[1]))
	}
	return bytes
}

func (st *Store) usable() error {
	if st.closed {
		return ErrClosed
	}
	if st.failed != nil {
		return fmt.Errorf("%w (cause: %v)", ErrFailed, st.failed)
	}
	return nil
}

// appendLocked journals one record (and makes it durable per the fsync
// policy) BEFORE the caller applies it in memory: the acknowledgment
// order that makes recovery exact. A write or fsync failure poisons the
// store — the journal's on-disk suffix is unknowable after one.
func (st *Store) appendLocked(rec *record) error {
	st.payload = rec.encode(st.payload[:0])
	if len(st.payload) > maxRecordPayload {
		// Callers size-check first; this backstop keeps any future
		// mutation path from journaling a frame recovery must reject.
		// Nothing has been written, so the store is NOT poisoned.
		return fmt.Errorf("%w: record encodes to %d bytes (cap %d)", ErrTooLarge, len(st.payload), maxRecordPayload)
	}
	st.scratch = appendFrame(st.scratch[:0], st.payload)
	frame := st.scratch
	if faultpoint.Enabled() && faultpoint.Fire(faultpoint.WALAppendTorn) {
		// Crash site: half the frame reaches the file, then the process
		// dies without running a single deferred function — the kill -9
		// shape recovery's torn-tail truncation exists for.
		st.wal.Write(frame[:len(frame)/2])
		st.wal.Sync()
		faultpoint.KillProcess()
	}
	if _, err := st.wal.Write(frame); err != nil {
		st.failed = err
		return fmt.Errorf("store: journal append: %w", err)
	}
	if st.opts.Fsync {
		var start time.Time
		obs := st.observer
		if obs != nil && obs.Fsync != nil {
			start = time.Now()
		}
		if err := st.sync(st.wal); err != nil {
			st.failed = err
			return fmt.Errorf("store: journal fsync: %w", err)
		}
		if obs != nil && obs.Fsync != nil {
			obs.Fsync(time.Since(start))
		}
	}
	if obs := st.observer; obs != nil && obs.Append != nil {
		obs.Append(len(frame))
	}
	st.seq = rec.seq
	st.walSize += int64(len(frame))
	st.appended++
	return nil
}

// sync fsyncs f, or fails with an injected error when the fsync-fail
// faultpoint fires.
func (st *Store) sync(f *os.File) error {
	if faultpoint.Enabled() && faultpoint.Fire(faultpoint.FsyncFail) {
		return errFsyncInjected
	}
	return f.Sync()
}

// maybeCompactLocked compacts when the journal has outgrown the
// threshold. Compaction failure is logged, not returned: the mutation
// that triggered it is already durable in the journal, and the journal
// remains the complete source of truth.
func (st *Store) maybeCompactLocked() {
	if st.opts.CompactThreshold <= 0 || st.walSize <= st.opts.CompactThreshold {
		return
	}
	if err := st.compactLocked(); err != nil {
		st.opts.Logf("store: compaction failed (journal remains authoritative): %v", err)
	}
}

// Compact takes a snapshot of the current corpus and truncates the
// journal. The state machine is crash-safe at every step:
//
//  1. write the full corpus to corpus.snap.tmp and fsync it
//     (crash here: tmp is ignored and removed on next Open)
//  2. rename corpus.snap.tmp → corpus.snap, fsync the directory
//     (crash between 1 and 2 is the snapshot-rename-crash fault site;
//     crash after: the journal's now-redundant records are skipped on
//     replay by their sequence numbers)
//  3. truncate the journal to just its magic and fsync
//     (crash mid-step: a short or empty journal file reads as empty)
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.usable(); err != nil {
		return err
	}
	return st.compactLocked()
}

func (st *Store) compactLocked() error {
	var start time.Time
	if obs := st.observer; obs != nil && obs.Compact != nil {
		start = time.Now()
	}
	tmp := filepath.Join(st.dir, snapTmpName)
	if err := writeSnapshotFile(tmp, st.seq, st.graphs, st.sync); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	// Crash site: the temp snapshot is durable but not installed.
	faultpoint.Kill(faultpoint.SnapshotRenameCrash)
	if err := os.Rename(tmp, filepath.Join(st.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	if err := syncDir(st.dir); err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	if err := st.wal.Truncate(int64(magicLen)); err != nil {
		st.failed = err
		return fmt.Errorf("store: resetting journal: %w", err)
	}
	if _, err := st.wal.Seek(int64(magicLen), 0); err != nil {
		st.failed = err
		return fmt.Errorf("store: resetting journal: %w", err)
	}
	if err := st.sync(st.wal); err != nil {
		st.failed = err
		return fmt.Errorf("store: syncing reset journal: %w", err)
	}
	st.walSize = int64(magicLen)
	st.compactions++
	if obs := st.observer; obs != nil && obs.Compact != nil {
		obs.Compact(time.Since(start))
	}
	return nil
}

// SetObserver installs (or, with nil, removes) the store's passive
// measurement hooks. Safe to call while mutations are in flight; the
// new observer takes effect for subsequent appends and compactions.
func (st *Store) SetObserver(o *Observer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.observer = o
}

// Close flushes and closes the journal. The store refuses all further
// operations.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if st.wal == nil {
		return nil
	}
	err := st.wal.Sync()
	if cerr := st.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the store counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Graphs:      len(st.graphs),
		LastSeq:     st.seq,
		WALBytes:    st.walSize,
		Appended:    st.appended,
		Compactions: st.compactions,
		Recovered:   st.recovered,
		TornTail:    st.tornTail,
		Fsync:       st.opts.Fsync,
	}
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable in the directory itself, not only in the file's own blocks.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
