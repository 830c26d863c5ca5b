package faultpoint

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site compiled into the serving stack. The
// constants below are the complete catalog; Set rejects unknown names.
type Point string

// The compiled-in injection points.
const (
	// DetectorPanic panics inside the service's miss executor while the
	// batch's admission slot is held, immediately before detector
	// dispatch — the "detector crashed" fault, at every batch size.
	DetectorPanic Point = "detector-panic"
	// BatchLeaderCrash panics at the same site — the "batch leader
	// crashed" fault that single-flight followers and batch waiters must
	// survive without hanging, double-releasing, or caching a poisoned
	// entry. Both points fire in every batch; they are separate so chaos
	// specs can count them independently.
	BatchLeaderCrash Point = "batch-leader-crash"
	// RoundStall sleeps at an engine round boundary, simulating a stalled
	// session (overloaded host, page-fault storm). It spends wall-clock
	// only — transcripts are unchanged — so it exercises deadline
	// admission and cooperative cancellation.
	RoundStall Point = "round-stall"
	// HandlerSlow sleeps in cycleserved's detect handler before the
	// service is invoked, simulating a slow middlebox or handler.
	HandlerSlow Point = "handler-slow"
	// WALAppendTorn is the store-layer torn-write crash: mid-append, only
	// a prefix of the framed WAL record reaches the file before the
	// process dies hard (KillProcess — no deferred functions run).
	// Recovery must truncate the torn tail and keep every earlier record.
	WALAppendTorn Point = "wal-append-torn"
	// SnapshotRenameCrash kills the process during snapshot compaction,
	// after the temporary snapshot file is durable but before the atomic
	// rename installs it. Recovery must ignore the leftover temp file and
	// replay the intact snapshot+journal pair.
	SnapshotRenameCrash Point = "snapshot-rename-crash"
	// FsyncFail makes the store's fsync return an injected error instead
	// of crashing: the mutation must NOT be acknowledged, and the store
	// must refuse further writes until reopened (after a failed fsync the
	// kernel may have dropped the dirty pages, so nothing later can be
	// trusted to be durable).
	FsyncFail Point = "fsync-fail"
)

// Points is the injection-point catalog, in documentation order.
var Points = []Point{
	DetectorPanic, BatchLeaderCrash, RoundStall, HandlerSlow,
	WALAppendTorn, SnapshotRenameCrash, FsyncFail,
}

// arm is the active configuration of one point.
type arm struct {
	every int64
	limit int64
	delay time.Duration
	count atomic.Int64
	fired atomic.Int64
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	arms    atomic.Pointer[map[Point]*arm]
)

// Enabled reports whether any injection point is armed. This single
// atomic load is the entire cost of a disarmed injection site.
func Enabled() bool { return enabled.Load() }

// defaultDelay is the sleep applied by stall points whose spec omits
// delay=.
const defaultDelay = time.Millisecond

// Set arms one injection point from a spec of the form
//
//	point:every=N[:limit=M][:delay=D]
//
// The point fires deterministically on every Nth pass through its site
// (passes N, 2N, 3N, ...), at most M times when limit is given; D is the
// sleep duration of stall points (default 1ms). Calling Set again for
// the same point replaces its configuration and resets its counters.
func Set(spec string) error {
	parts := strings.Split(spec, ":")
	p := Point(parts[0])
	if !known(p) {
		return fmt.Errorf("faultpoint: unknown point %q (catalog: %v)", parts[0], Points)
	}
	a := &arm{every: 1}
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("faultpoint: %q: want key=value, got %q", spec, kv)
		}
		switch key {
		case "every":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("faultpoint: %q: every wants an integer ≥ 1, got %q", spec, val)
			}
			a.every = n
		case "limit":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("faultpoint: %q: limit wants an integer ≥ 1, got %q", spec, val)
			}
			a.limit = n
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("faultpoint: %q: bad delay %q", spec, val)
			}
			a.delay = d
		default:
			return fmt.Errorf("faultpoint: %q: unknown parameter %q (want every|limit|delay)", spec, key)
		}
	}
	if a.delay == 0 {
		a.delay = defaultDelay
	}
	mu.Lock()
	defer mu.Unlock()
	next := make(map[Point]*arm)
	if cur := arms.Load(); cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[p] = a
	arms.Store(&next)
	enabled.Store(true)
	return nil
}

// Reset disarms every injection point and clears all counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	enabled.Store(false)
	arms.Store(nil)
}

func known(p Point) bool {
	for _, q := range Points {
		if q == p {
			return true
		}
	}
	return false
}

func lookup(p Point) *arm {
	m := arms.Load()
	if m == nil {
		return nil
	}
	return (*m)[p]
}

// Fire records one pass through point p and reports whether the fault
// fires on this pass (deterministic every-Nth counting, bounded by the
// point's limit). Sites on hot paths guard the call with Enabled().
func Fire(p Point) bool {
	if !enabled.Load() {
		return false
	}
	a := lookup(p)
	if a == nil {
		return false
	}
	if a.count.Add(1)%a.every != 0 {
		return false
	}
	if a.limit > 0 && a.fired.Add(1) > a.limit {
		return false
	}
	if a.limit == 0 {
		a.fired.Add(1)
	}
	return true
}

// Crash panics with a recognizable payload when p fires. The payload
// prefix "faultpoint:" lets recover fences and log triage distinguish
// injected crashes from real ones.
func Crash(p Point) {
	if Fire(p) {
		panic(fmt.Sprintf("faultpoint: injected %s", p))
	}
}

// KillExitCode is the exit status of KillProcess: 137, the status a
// SIGKILLed process reports, so crash harnesses can tell an injected
// hard crash from an ordinary test failure.
const KillExitCode = 137

// KillProcess terminates the process immediately with KillExitCode. No
// deferred functions, no buffered-writer flushes, no connection
// teardown: the in-process equivalent of kill -9, used by store crash
// sites after they have staged their torn on-disk state.
func KillProcess() {
	os.Exit(KillExitCode)
}

// Kill hard-kills the process (KillProcess) when p fires. Sites that
// must stage partial state first (e.g. a torn write) call Fire and
// KillProcess themselves.
func Kill(p Point) {
	if Fire(p) {
		KillProcess()
	}
}

// Sleep pauses for p's configured delay when p fires. A no-op (one
// atomic load) while disarmed.
func Sleep(p Point) {
	if !enabled.Load() {
		return
	}
	if a := lookup(p); a != nil && Fire(p) {
		time.Sleep(a.delay)
	}
}

// Fired snapshots how many times each armed point has fired, for stats
// endpoints and test assertions that a chaos run actually exercised its
// faults.
func Fired() map[Point]int64 {
	m := arms.Load()
	if m == nil {
		return nil
	}
	out := make(map[Point]int64, len(*m))
	for p, a := range *m {
		out[p] = a.fired.Load()
	}
	return out
}

// String renders the armed configuration for logs ("point=every:N" style,
// sorted), or "disarmed".
func String() string {
	m := arms.Load()
	if m == nil || len(*m) == 0 {
		return "disarmed"
	}
	var parts []string
	for p, a := range *m {
		s := fmt.Sprintf("%s:every=%d", p, a.every)
		if a.limit > 0 {
			s += fmt.Sprintf(":limit=%d", a.limit)
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
