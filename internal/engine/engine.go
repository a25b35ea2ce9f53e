// Package engine is the one run lifecycle behind the real-byte engines:
// internal/live (in-memory mailboxes) and internal/tcp (sockets, in one
// process or as a cluster worker's rank range) are this core plus a
// Transport. The paper writes each algorithm once against one
// buffered-send interface and runs it unchanged on two machines; the core
// is where that interface — comm.Comm's Send, Recv and Barrier, their
// bounds checks, counters and traced events — is implemented once, along
// with everything a run needs around it: mailboxes wiped and rearmed per
// run, deadlines, failure classification and the abort that unwinds
// every blocked rank.
//
// # Goroutines
//
// A machine starts its goroutines once, in New, and Close joins them:
// one per local rank, which Run hands each run to (no goroutine is
// started per run), and one watchdog, which enforces every deadline of
// the run in flight. The watchdog owns the only timers: one for
// Options.RunTimeout, and, when Options.RecvTimeout is set, a tick every
// RecvTimeout/comm.DeadlineTicks at which it looks at every blocked
// receive and barrier. A wait seen blocked at a tick and still blocked,
// the same wait, comm.DeadlineTicks ticks later expires, so the blocking
// Recv and Barrier paths read no clock and touch no timer. A rank body
// that leaves through runtime.Goexit takes its goroutine with it; Run
// starts a replacement before it returns.
//
// # Failure semantics
//
// A run never hangs when a deadline is configured; every failure becomes
// an error from Run naming the engine, the rank, the peer it was waiting
// on and the cause:
//
//   - A rank panics: the run aborts, every rank blocked in Recv or Barrier
//     unwinds, and Run reports the panicking rank as the root cause.
//   - A Recv or Barrier wait stays blocked for Options.RecvTimeout T (it
//     expires within [T, 1.25 T), give or take the scheduler): the
//     stalled rank aborts the run, naming itself and the awaited peer
//     (for a barrier, the ranks that never arrived).
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
	// Barrier wait: a wait blocked for RecvTimeout T expires within
	// [T, 1.25 T) and aborts the run with an error naming the blocked rank
	// and the peer it waited on — this is what turns a hung or dead peer
	// into a diagnosable failure. The machine's watchdog enforces it with
	// a tick every T/4; the wait itself reads no clock.
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
	// and returns once m's buffers may be reused; shared says the sender
	// never changes them (Proc.SendShared). Memory hands it to Run.Local;
	// sockets encode a frame and write it, and the far end's reader calls
	// Run.Push.
	Deliver(r *Run, src, dst int, m comm.Message, shared bool) error
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

	// goroutines counts the rank goroutines and the watchdog, which live
	// until Close. running counts the local ranks still executing the run
	// in flight; the last one to finish signals finished.
	goroutines sync.WaitGroup
	running    atomic.Int32
	finished   chan struct{}

	// The watchdog's handoff (watchdog.go), under wmu: watched is the run
	// in flight when it has a deadline or a context, started counts the
	// runs handed over, period is the tick period (0 while the ticks are
	// parked). wake tells the watchdog a run needs it; Close closes it.
	wmu     sync.Mutex
	watched *Run
	started uint64
	period  time.Duration
	wake    chan struct{}
}

// New builds the local ranks [lo,hi) of a size-rank machine over tr.
// leaders lists the lowest rank of every process sharing the mesh (lo
// among them); {lo} when there is only this one. name prefixes errors.
// It starts the machine's goroutines, one per local rank and the
// watchdog; the caller must Close the machine to end them.
func New(name string, size, lo, hi int, leaders []int, tr Transport) *Machine {
	m := &Machine{
		name: name, size: size, lo: lo, hi: hi, leaders: leaders, tr: tr,
		procs: make([]*Proc, size), bar: comm.NewRendezvous(lo, hi),
		finished: make(chan struct{}, 1), wake: make(chan struct{}, 1),
	}
	if len(leaders) > 1 {
		m.cross = m.crossBarrier
	}
	m.goroutines.Add(hi - lo + 1)
	for i := lo; i < hi; i++ {
		in := &inbox{cur: &m.cur, boxes: make([]comm.Queue, size)}
		in.cond = sync.NewCond(&in.mu)
		m.procs[i] = &Proc{rank: i, m: m, in: in, runs: make(chan *Run, 1)}
		go m.serve(m.procs[i])
	}
	go m.watchdog()
	return m
}

// Size returns the machine's rank count (local or not).
func (m *Machine) Size() int { return m.size }

// Current returns the run in flight, nil between runs.
func (m *Machine) Current() *Run { return m.cur.Load() }

// Close marks the machine closed, joins its goroutines and closes the
// transport. It is idempotent; a run must not be in flight.
func (m *Machine) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for _, pr := range m.procs[m.lo:m.hi] {
		close(pr.runs)
	}
	close(m.wake)
	m.goroutines.Wait()
	return m.tr.Close()
}

// Run is one run's state: its options, clock zero and abort latch.
// Transports receive it in Deliver and reach the run in flight through
// Machine.Current.
type Run struct {
	m           *Machine
	fn          func(*Proc) // the rank body, dropped when the run ends
	tr          obs.Tracer
	ctx         context.Context
	runTimeout  time.Duration
	recvTimeout time.Duration
	start       time.Time // zero point of traced Wall stamps
	// arming is the run's handle on the barrier (comm.Rendezvous.Arm): an
	// abort quotes it, so one that outlives the run cannot poison the next.
	arming  uint64
	aborted atomic.Bool
	seq     uint64 // the watchdog's name for the run (Machine.started)
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

// Local is the in-memory delivery path: it pushes m to dst's inbox. A
// shared message (Proc.SendShared) goes as it is, under a part header
// capped at its length, so the receiver's appends cannot write into the
// sender's array. Any other is copied into one backing array first — the
// buffered-send contract lets the caller reuse its buffers the moment
// Send returns. The memory transport delivers everything this way; every
// engine's self-sends do, and so do a cluster worker's sends between its
// own ranks.
func (r *Run) Local(src, dst int, m comm.Message, shared bool) {
	if shared {
		n := len(m.Parts)
		r.Push(dst, src, comm.Message{Tag: m.Tag, Parts: m.Parts[:n:n]})
		return
	}
	var total int
	for _, part := range m.Parts {
		total += len(part.Data)
	}
	parts := make([]comm.Part, len(m.Parts))
	var backing []byte
	if total > 0 {
		backing = make([]byte, total)
	}
	for i, part := range m.Parts {
		n := copy(backing, part.Data)
		// Full slice expression: an append through one part must not
		// bleed into the next part's bytes.
		parts[i] = comm.Part{Origin: part.Origin, Data: backing[:n:n]}
		backing = backing[n:]
	}
	r.Push(dst, src, comm.Message{Tag: m.Tag, Parts: parts})
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

// Run executes fn on every local rank, each on the rank's goroutine,
// over the warm machine. A failure on any rank aborts the run and is
// returned as an error; the machine remains usable.
func (m *Machine) Run(opts Options, fn func(*Proc)) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("%s: Run on closed machine", m.name)
	}
	r := &Run{
		m: m, fn: fn, tr: opts.Tracer, ctx: opts.Context,
		runTimeout: opts.RunTimeout, recvTimeout: opts.RecvTimeout, arming: m.bar.Arm(),
	}
	local := m.procs[m.lo:m.hi]
	for _, pr := range local {
		pr.begin(r)
	}
	r.start = time.Now()
	// Mailboxes are wiped and stamped for r; only now are deliveries
	// quoting it accepted.
	m.cur.Store(r)
	// The ranks count as running before the watchdog sees r, so a context
	// already cancelled or a deadline firing before they are handed r
	// still aborts it: mailboxes and barrier are armed for r.
	m.running.Store(int32(len(local)))
	watched := m.watch(r)
	m.tr.Begin()

	began := time.Now()
	for _, pr := range local {
		pr.runs <- r
	}
	<-m.finished
	res := &Result{Elapsed: time.Since(began), Procs: make([]ProcStats, len(local))}
	// The run is over: whatever is still in flight for it is dropped, and
	// no deadline of it can fire any more.
	m.cur.Store(nil)
	if watched {
		m.unwatch()
	}
	r.fn = nil
	for i, pr := range local {
		res.Procs[i] = pr.stats
	}
	// Roots (ranks that failed by themselves: panics, deadline overruns,
	// broken links, cancellation) before unwinds (ranks that merely
	// stopped because the run was aborted).
	for _, pr := range local {
		if pr.root != nil {
			return nil, pr.root
		}
	}
	for _, pr := range local {
		if pr.unwind != nil {
			return nil, pr.unwind
		}
	}
	return res, nil
}

// serve is rank pr's goroutine: it executes every run handed to it until
// Close.
func (m *Machine) serve(pr *Proc) {
	var cur *Run
	defer func() {
		if cur != nil {
			// The rank body left through runtime.Goexit, which takes
			// this goroutine with it: a replacement serves the rank
			// from here on, in place before the run is reported over.
			m.goroutines.Add(1)
			go m.serve(pr)
			m.finish()
		}
		m.goroutines.Done()
	}()
	for r := range pr.runs {
		cur = r
		r.exec(pr)
		cur = nil
		m.finish()
	}
}

// finish reports one local rank done with the run in flight.
func (m *Machine) finish() {
	if m.running.Add(-1) == 0 {
		m.finished <- struct{}{}
	}
}

// exec runs r's rank body on pr and classifies a panic: an unwind when it
// is the run's abort reaching a blocked rank, a root cause otherwise —
// and then the rank aborts the run, so blocked peers unwind instead of
// hanging on a dead rank.
func (r *Run) exec(pr *Proc) {
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
			pr.unwind = fmt.Errorf("%s: rank %d unwound: %w", r.m.name, pr.rank, err)
			return
		}
		pr.root = fmt.Errorf("%s: rank %d: %w", r.m.name, pr.rank, err)
		r.abort(&abortError{cause: fmt.Errorf("machine aborted by rank %d", pr.rank)})
	}()
	r.fn(pr)
}
