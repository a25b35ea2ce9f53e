// Package engine is the one run lifecycle behind the real-byte engines:
// internal/live (in-memory mailboxes) and internal/tcp (sockets, in one
// process or as a cluster worker's rank range) are this core plus a
// Transport. The paper writes each algorithm once against one
// buffered-send interface and runs it unchanged on two machines; the core
// is where that interface — comm.Comm's Send, Recv and Barrier, their
// bounds checks, counters and traced events — is implemented once, along
// with everything a run needs around it: mailboxes wiped and rearmed per
// run, the context/RunTimeout watchdog, one goroutine per local rank,
// failure classification and the abort that unwinds every blocked rank.
//
// # Failure semantics
//
// A run never hangs when a deadline is configured; every failure becomes
// an error from Run naming the engine, the rank, the peer it was waiting
// on and the cause:
//
//   - A rank panics: the run aborts, every rank blocked in Recv or Barrier
//     unwinds, and Run reports the panicking rank as the root cause.
//   - A Recv or Barrier wait exceeds Options.RecvTimeout: the stalled rank
//     aborts the run, naming itself and the awaited peer (for a barrier,
//     the ranks that never arrived).
//   - Options.Context is canceled or Options.RunTimeout elapses: the run
//     aborts with that cause.
//   - The transport reports a broken link (Run.Fail): the rank that lost
//     its peer reports it; everyone else unwinds.
//
// Roots (a rank that failed by itself) take precedence over unwinds
// (ranks that merely stopped because the run was aborted) in the returned
// error. An aborted run leaves the machine usable: the next Run starts
// from wiped mailboxes, a rearmed barrier and a fresh abort latch, and
// nothing an old run still has in flight can reach it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Options harden one run against hangs and stuck peers. The zero value
// applies no deadlines and no cancellation. They are consumed afresh by
// every Run, so successive runs over one machine may differ.
type Options struct {
	// Context, when non-nil, cancels the run: blocked ranks unwind and
	// Run returns an error carrying ctx.Err().
	Context context.Context
	// RunTimeout, when positive, bounds the algorithm phase.
	RunTimeout time.Duration
	// RecvTimeout, when positive, bounds any single blocking Recv or
	// Barrier wait; exceeding it aborts the run with an error naming the
	// blocked rank and the peer it waited on — this is what turns a hung
	// or dead peer into a diagnosable failure.
	RecvTimeout time.Duration
	// Tracer, when non-nil, receives an obs.Event for every send, recv,
	// wait (a receive that had to block) and barrier, stamped with
	// wall-clock nanoseconds since the run started; a traced recv also
	// carries Arrival, the instant its message reached the inbox. Events
	// arrive from all rank goroutines concurrently, so the tracer must be
	// safe for concurrent use (trace.Recorder is). Nil tracing costs one
	// branch per operation.
	Tracer obs.Tracer
}

// Transport is everything that differs between the engines: how a message
// leaves a rank, what a mesh needs before a run and after an abort.
// Barrier tokens between cluster workers' leaders travel through Deliver
// like any message (tagged TokenTag) and come back through Run.Push.
type Transport interface {
	// Deliver moves m from local rank src toward dst (never src itself)
	// and returns once m's buffers may be reused. Memory hands it to
	// Run.Local; sockets encode a frame and write it, and the far end's
	// reader calls Run.Push.
	Deliver(r *Run, src, dst int, m comm.Message) error
	// Begin is called with the run's mailboxes armed and no rank started
	// yet. Sockets publish the armed epoch here, releasing frames a
	// cluster worker that started first already sent.
	Begin()
	// Abort releases whatever could keep a rank or a reader blocked
	// outside the core once a run has failed (sockets close the mesh).
	Abort()
	// Close releases the transport for good; no run is in flight.
	Close() error
}

// ProcStats counts one rank's operations during a run. Sends/Recvs and
// the byte counters cover algorithm traffic only.
type ProcStats struct {
	Rank      int
	Sends     int
	Recvs     int
	SendBytes int64
	RecvBytes int64
	// BarrierSends/BarrierRecvs count the barrier tokens this rank put on
	// and took off the wire. Ranks of one process meet in memory, so both
	// are 0 unless the machine is a cluster worker's, and there only the
	// leader (lowest local) rank exchanges tokens, ⌈log2 W⌉ per barrier
	// for W workers.
	BarrierSends int
	BarrierRecvs int
}

// Result is the outcome of a run.
type Result struct {
	// Elapsed is the wall-clock duration of the algorithm phase.
	Elapsed time.Duration
	// Procs holds the local ranks' operation counts in rank order: every
	// rank, or a cluster worker's range (Rank identifies each entry).
	Procs []ProcStats
}

// abortError is what aborted mailboxes and barriers hand to the ranks
// blocked on them. external marks context/deadline aborts, which every
// rank reports as a root cause; otherwise the error is a secondary
// unwind of a failure first reported elsewhere.
type abortError struct {
	cause    error
	external bool
}

func (e *abortError) Error() string { return e.cause.Error() }
func (e *abortError) Unwrap() error { return e.cause }

// Machine is a persistent set of local ranks — mailboxes, barrier and
// Procs built once by New and reused by every Run. Run and Close
// serialize; a Machine executes one run at a time.
type Machine struct {
	name   string // engine name, the prefix of every error
	size   int
	lo, hi int // local rank range; procs is indexed by rank, nil outside
	procs  []*Proc
	bar    *comm.Rendezvous
	// leaders holds the lowest rank of every process sharing the mesh,
	// ascending; cross is the barrier's cross-process level, nil when
	// this process is the only one.
	leaders []int
	cross   func() error
	tr      Transport

	mu     sync.Mutex // serializes Run and Close
	closed bool
	// cur is the run in flight, nil between runs: deliveries and aborts
	// quote the run they belong to and are dropped once it is not cur.
	cur atomic.Pointer[Run]
}

// New builds the local ranks [lo,hi) of a size-rank machine over tr.
// leaders lists the lowest rank of every process sharing the mesh (lo
// among them); {lo} when there is only this one. name prefixes errors.
func New(name string, size, lo, hi int, leaders []int, tr Transport) *Machine {
	m := &Machine{
		name: name, size: size, lo: lo, hi: hi, leaders: leaders, tr: tr,
		procs: make([]*Proc, size), bar: comm.NewRendezvous(lo, hi),
	}
	if len(leaders) > 1 {
		m.cross = m.crossBarrier
	}
	for i := lo; i < hi; i++ {
		in := &inbox{cur: &m.cur, boxes: make([]comm.Queue, size)}
		in.cond = sync.NewCond(&in.mu)
		m.procs[i] = &Proc{rank: i, m: m, in: in}
	}
	return m
}

// Size returns the machine's rank count (local or not).
func (m *Machine) Size() int { return m.size }

// Current returns the run in flight, nil between runs.
func (m *Machine) Current() *Run { return m.cur.Load() }

// Close marks the machine closed and closes the transport. It is
// idempotent; a run must not be in flight.
func (m *Machine) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.tr.Close()
}

// Run is one run's state: its options, clock zero and abort latch.
// Transports receive it in Deliver and reach the run in flight through
// Machine.Current.
type Run struct {
	m           *Machine
	tr          obs.Tracer
	ctx         context.Context
	recvTimeout time.Duration
	start       time.Time // zero point of traced Wall stamps
	// arming is the run's handle on the barrier (comm.Rendezvous.Arm): an
	// abort quotes it, so one that outlives the run cannot poison the next.
	arming  uint64
	aborted atomic.Bool

	// The watchdog (see watch): over retires it, watcher joins it.
	over    chan struct{}
	timer   *time.Timer
	watcher sync.WaitGroup
}

// wall returns nanoseconds since the run started, 0 on untraced runs so
// their hot paths skip the clock read.
func (r *Run) wall() int64 {
	if r.tr == nil {
		return 0
	}
	return time.Since(r.start).Nanoseconds()
}

// Push hands rank dst a message that arrived from src — a barrier token
// when tagged TokenTag. It is dropped when r is no longer the run in
// flight, so a reader descheduled between decoding a frame and
// delivering it cannot bleed it into the next run.
func (r *Run) Push(dst, src int, m comm.Message) {
	r.m.procs[dst].in.push(r, src, m, r.wall())
}

// Local is the in-memory delivery path: it copies m's parts into one
// backing array — the buffered-send contract lets the caller reuse its
// buffers the moment Send returns — and pushes the copy to dst's inbox.
// The memory transport delivers everything this way; every engine's
// self-sends do.
func (r *Run) Local(src, dst int, m comm.Message) {
	cp := comm.Message{Tag: m.Tag, Parts: make([]comm.Part, len(m.Parts))}
	var total int
	for _, part := range m.Parts {
		total += len(part.Data)
	}
	var backing []byte
	if total > 0 {
		backing = make([]byte, 0, total)
	}
	for i, part := range m.Parts {
		if part.Data == nil {
			// Length-only part (simulator path): keep the declared size.
			cp.Parts[i] = comm.Part{Origin: part.Origin, Size: part.Size}
			continue
		}
		start := len(backing)
		backing = append(backing, part.Data...)
		// Full slice expression: an append through one part must not
		// bleed into the next part's bytes.
		cp.Parts[i] = comm.Part{Origin: part.Origin, Data: backing[start:len(backing):len(backing)]}
	}
	r.Push(dst, src, cp)
}

// Fail reports a failure the transport saw on rank's behalf — its link
// to a peer broke. rank reports err as the root cause if it is (or gets)
// blocked on its inbox; every other rank unwinds.
func (r *Run) Fail(rank int, err error) {
	r.m.procs[rank].in.fail(r, err)
	r.abort(&abortError{cause: fmt.Errorf("machine aborted: %w", err)})
}

// abort fails every inbox and the barrier of r with reason and tells the
// transport to let go. The first abort of a run wins; one for a run no
// longer in flight cannot poison a newer run's mailboxes or barrier.
func (r *Run) abort(reason *abortError) {
	if r.aborted.Swap(true) {
		return
	}
	m := r.m
	m.bar.Abort(r.arming, reason)
	for _, pr := range m.procs[m.lo:m.hi] {
		pr.in.fail(r, reason)
	}
	m.tr.Abort()
}

// sendErr classifies a failed delivery: after the run aborted it is a
// secondary unwind, not a root cause.
func (r *Run) sendErr(dst int, err error) error {
	err = fmt.Errorf("send to %d: %w", dst, err)
	if r.aborted.Load() {
		return &abortError{cause: err}
	}
	return err
}

// watch starts the run's external abort sources: context cancellation
// and the whole-run deadline. unwatch retires them once the run is over.
func (r *Run) watch(timeout time.Duration) {
	var ctxDone <-chan struct{}
	if r.ctx != nil {
		ctxDone = r.ctx.Done()
	}
	if ctxDone == nil && timeout <= 0 {
		return
	}
	var timeoutC <-chan time.Time
	if timeout > 0 {
		r.timer = time.NewTimer(timeout)
		timeoutC = r.timer.C
	}
	r.over = make(chan struct{})
	r.watcher.Add(1)
	go func() {
		defer r.watcher.Done()
		select {
		case <-ctxDone:
			r.abort(&abortError{cause: fmt.Errorf("run canceled: %w", r.ctx.Err()), external: true})
		case <-timeoutC:
			r.abort(&abortError{cause: fmt.Errorf("run exceeded %v deadline", timeout), external: true})
		case <-r.over:
		}
	}()
}

func (r *Run) unwatch() {
	if r.over == nil {
		return
	}
	close(r.over)
	r.watcher.Wait()
	if r.timer != nil {
		r.timer.Stop()
	}
}

// Run executes fn on every local rank, one goroutine each, over the warm
// machine. A failure on any rank aborts the run and is returned as an
// error; the machine remains usable.
func (m *Machine) Run(opts Options, fn func(*Proc)) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("%s: Run on closed machine", m.name)
	}
	r := &Run{m: m, tr: opts.Tracer, ctx: opts.Context, recvTimeout: opts.RecvTimeout, arming: m.bar.Arm()}
	local := m.procs[m.lo:m.hi]
	for _, pr := range local {
		pr.begin(r)
	}
	r.start = time.Now()
	// Mailboxes are wiped and stamped for r; only now are deliveries
	// quoting it accepted.
	m.cur.Store(r)
	r.watch(opts.RunTimeout)
	m.tr.Begin()

	// roots collects the ranks that failed by themselves (panics, deadline
	// overruns, broken links, cancellation), unwinds those that merely
	// stopped because the run was aborted.
	failed := make([]error, 2*len(local))
	roots, unwinds := failed[:len(local)], failed[len(local):]
	var wg sync.WaitGroup
	began := time.Now()
	for i, pr := range local {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				x := recover()
				if x == nil {
					return
				}
				err, ok := x.(error)
				if !ok {
					err = fmt.Errorf("%v", x)
				}
				var ab *abortError
				if errors.As(err, &ab) && !ab.external {
					unwinds[i] = fmt.Errorf("%s: rank %d unwound: %w", m.name, pr.rank, err)
					return
				}
				roots[i] = fmt.Errorf("%s: rank %d: %w", m.name, pr.rank, err)
				// Fail fast: blocked peers unwind instead of hanging on
				// a dead rank.
				r.abort(&abortError{cause: fmt.Errorf("machine aborted by rank %d", pr.rank)})
			}()
			fn(pr)
		}()
	}
	wg.Wait()
	res := &Result{Elapsed: time.Since(began), Procs: make([]ProcStats, len(local))}
	// The run is over: whatever is still in flight for it is dropped.
	m.cur.Store(nil)
	r.unwatch()
	for i, pr := range local {
		res.Procs[i] = pr.stats
	}
	for _, err := range failed {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
