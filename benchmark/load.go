package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// clients is the number of closed-loop clients, and of senders behind an
// open loop: one per core of the 2-core host, each on its own connection.
const clients = 2

// call is one HTTP exchange of a traced op.
type call struct {
	name       string // "http.request" (a detection) or "http.mutate"
	start, end time.Time
	// stages is the server's trace_ns split of a traced detection.
	stages           map[string]int64
	batch            int
	rounds, messages int64
}

// traceLog collects the calls of one traced op; nil when untraced.
type traceLog struct{ calls []call }

// tracedOp is one op of a traced pass, kept for spans and stage metrics.
type tracedOp struct {
	start, end time.Time
	calls      []call
}

// phase is the outcome of one stretch of load.
type phase struct {
	attempted, failed int
	lat               []time.Duration // per successful op
	lag               []time.Duration // open loop: generator lateness per arrival
	elapsed           time.Duration
	ops               []tracedOp // traced passes only
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.ops = append(p.ops, q.ops...)
}

// runner drives one workload against one server instance. Op sequence
// numbers continue across phases, so a measured phase never repeats a
// warm-up request.
type runner struct {
	s    *server
	d    agent
	next [clients]int // closed loop: ops issued per client
	seq  int          // open loop: next arrival
	errs *errLog
}

// closed runs a closed loop: each client sends its next op when the last
// one completes, for dur or, when opsPerClient > 0, that many ops each.
func (r *runner) closed(dur time.Duration, opsPerClient int, traced bool) *phase {
	parts := make([]phase, clients)
	start := time.Now()
	until := start.Add(dur)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if opsPerClient > 0 && n >= opsPerClient || opsPerClient == 0 && !time.Now().Before(until) {
					return
				}
				seq := r.next[c]*clients + c
				r.next[c]++
				r.do(&parts[c], c, seq, time.Time{}, traced)
			}
		}()
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	for i := range parts {
		p.merge(&parts[i])
	}
	return p
}

// open runs an open loop: arrivals follow the schedule regardless of
// completions, and each op's latency runs from its due time, so a stall
// also charges the wait it imposes on the arrivals queued behind it.
func (r *runner) open(schedule []time.Duration, traced bool) *phase {
	type job struct {
		seq int
		due time.Time
	}
	// Sized to the schedule so the generator never blocks on busy senders:
	// a backlog must show as latency from the due time, not as lag.
	jobs := make(chan job, len(schedule))
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r.do(&parts[c], c, j.seq, j.due, traced)
			}
		}()
	}
	start := time.Now()
	lag := make([]time.Duration, 0, len(schedule))
	preciseSleeper(func(sleepUntil func(time.Time)) {
		for _, off := range schedule {
			due := start.Add(off)
			sleepUntil(due)
			lag = append(lag, max(time.Since(due), 0))
			jobs <- job{r.seq, due}
			r.seq++
		}
	})
	close(jobs)
	wg.Wait()
	p := &phase{elapsed: time.Since(start), lag: lag}
	for i := range parts {
		p.merge(&parts[i])
	}
	return p
}

// preciseSleeper runs f on a locked OS thread with 1ns timer slack and,
// where the host permits it, the SCHED_FIFO real-time policy, handing it
// a sleepUntil built on nanosleep(2). The runtime's own timers wake up to
// a millisecond late (its poller waits in whole milliseconds), and a
// thread woken by a timer then waits for a core the server keeps busy;
// either alone would push the open loop's generator lag past its 1ms
// validity bound. The thread only sleeps and enqueues, so its priority
// takes no measurable CPU from the server.
func preciseSleeper(f func(sleepUntil func(time.Time))) {
	const prSetTimerSlack = 29
	const schedOther, schedFIFO = 0, 1
	runtime.LockOSThread()
	// Restore the thread and unlock rather than let it die: a server
	// started from this thread would get its death signal.
	defer runtime.UnlockOSThread()
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	prio := int32(1)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&prio))); errno == 0 {
		defer func() {
			prio = 0
			syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedOther, uintptr(unsafe.Pointer(&prio)))
		}()
	}
	f(func(due time.Time) {
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
	})
}

// do runs one op and records its outcome; due is zero in a closed loop.
func (r *runner) do(p *phase, c, seq int, due time.Time, traced bool) {
	var tl *traceLog
	if traced {
		tl = &traceLog{}
	}
	start := time.Now()
	err := r.d.op(r.s, c, seq, tl)
	end := time.Now()
	p.attempted++
	if err != nil {
		p.failed++
		r.errs.note(err)
		return
	}
	from := start
	if !due.IsZero() {
		from = due
	}
	p.lat = append(p.lat, end.Sub(from))
	if traced {
		p.ops = append(p.ops, tracedOp{start: start, end: end, calls: tl.calls})
	}
}

// errLog prints the first few failures to stderr; the rest are counted.
type errLog struct {
	mu sync.Mutex
	n  int
}

func (e *errLog) note(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	if e.n <= 5 {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", err)
	}
}
