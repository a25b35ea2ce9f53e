// Package live executes an algorithm on a real concurrent runtime: one
// goroutine per processor, messages moved as real bytes through in-memory
// mailboxes. It is the functional-correctness twin of internal/sim — the
// same algorithm code runs on both engines — and the closest analogue of
// the paper's machines this environment offers (per-process address spaces
// approximated by goroutines + channels/mailboxes instead of MPI).
//
// Unlike the simulator, the live engine gives no virtual timing; it
// reports wall-clock elapsed time and operation counts. Payload bytes are
// copied on send, so a sender mutating its buffer after Send cannot
// corrupt a message in flight — matching the buffered semantics of NX
// csend that the algorithms assume.
//
// # Sessions
//
// NewMachine builds the mailboxes and barrier once; Machine.Run executes
// one algorithm over them and may be called many times back to back,
// each run starting from wiped mailboxes, a reset barrier and a cleared
// abort latch — so an aborted run cannot leak messages, barrier tokens
// or its failure into the next one. Run/RunOpts remain as one-shot
// open-run-close wrappers.
//
// # Failure semantics
//
// A run fails in one of three ways, and in every case Run returns an
// error instead of hanging:
//
//   - A processor panics: the machine aborts, every processor blocked in
//     Recv or Barrier is unwound, and Run reports the panicking rank as
//     the root cause.
//   - A blocking Recv or Barrier wait exceeds Options.RecvTimeout: the
//     stalled processor aborts the machine with an error naming the
//     blocked rank and the peer it was waiting on.
//   - Options.Context is canceled or Options.RunTimeout elapses: the
//     machine aborts and the returned error carries the cancellation
//     cause plus the first blocked rank/peer that was unwound.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

// Options harden a run against hangs and stuck peers. The zero value
// preserves the historical behaviour: no deadlines, no cancellation.
type Options struct {
	// Context, when non-nil, cancels the run: blocked processors are
	// unwound and Run returns an error carrying ctx.Err().
	Context context.Context
	// RunTimeout, when positive, bounds the whole run (fn execution,
	// not including goroutine spawn overhead).
	RunTimeout time.Duration
	// RecvTimeout, when positive, bounds any single blocking Recv or
	// Barrier wait. A processor blocked longer aborts the machine with
	// an error naming the rank and the awaited peer — this is what
	// turns a hung or dead peer into a diagnosable failure.
	RecvTimeout time.Duration
	// Tracer, when non-nil, receives an obs.Event for every send, recv,
	// wait (a receive that had to block) and barrier, stamped with
	// wall-clock nanoseconds since the run started. Events arrive from
	// all rank goroutines concurrently, so the tracer must be safe for
	// concurrent use (trace.Recorder is). Nil tracing costs one branch
	// per operation.
	Tracer obs.Tracer
}

// errAbort is the panic value used to unwind processors blocked on a
// machine that has already failed.
type errAbort struct{ cause string }

// inbox is one processor's receive side: per-source FIFOs under one lock.
// Each mailbox is a comm.Queue ring buffer, so delivered payloads do not
// stay reachable through the queue's backing array for the rest of the
// run.
type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	boxes []comm.Queue
	// waker wakes the owning rank's blocked Recv at its deadline. Only
	// that rank waits here, so one reusable timer serves every receive —
	// and a Recv whose message is already queued never touches it.
	waker comm.DeadlineWaker
}

// ProcStats counts one processor's operations during a run.
type ProcStats struct {
	Rank      int
	Sends     int
	Recvs     int
	SendBytes int64
	RecvBytes int64
}

// Result is the outcome of a live run.
type Result struct {
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Procs holds per-processor operation counts, indexed by rank.
	Procs []ProcStats
}

// machine is the shared state of one live run.
type machine struct {
	size        int
	inboxes     []*inbox
	bar         *comm.Rendezvous
	arming      uint64 // the run's handle on bar (see comm.Rendezvous.Arm)
	recvTimeout time.Duration
	tr          obs.Tracer
	start       time.Time // run start, the zero of traced Wall stamps

	aborted    atomic.Bool
	abortMu    sync.Mutex
	abortCause error
}

// wall returns nanoseconds since the run started.
func (m *machine) wall() int64 { return time.Since(m.start).Nanoseconds() }

// abort marks the machine failed with the given cause and wakes every
// blocked processor. The first cause wins.
func (m *machine) abort(cause error) {
	m.abortMu.Lock()
	if m.aborted.Load() {
		m.abortMu.Unlock()
		return
	}
	m.abortCause = cause
	m.aborted.Store(true)
	m.abortMu.Unlock()
	for _, ib := range m.inboxes {
		ib.mu.Lock()
		ib.cond.Broadcast()
		ib.mu.Unlock()
	}
	m.bar.Abort(m.arming, cause)
}

// cause returns the abort cause (nil if the machine has not aborted).
func (m *machine) cause() error {
	m.abortMu.Lock()
	defer m.abortMu.Unlock()
	return m.abortCause
}

// Proc is one live processor's handle. It implements comm.Comm,
// comm.IterMarker and comm.PhaseMarker. Methods must only be called from
// the algorithm goroutine for this processor.
type Proc struct {
	rank  int
	m     *machine
	stats ProcStats
	iter  int
	phase string
}

var _ comm.Comm = (*Proc)(nil)
var _ comm.IterMarker = (*Proc)(nil)
var _ comm.PhaseMarker = (*Proc)(nil)

// BeginIter implements comm.IterMarker: traced events carry the iteration.
func (p *Proc) BeginIter(i int) { p.iter = i }

// BeginPhase implements comm.PhaseMarker: traced events carry the label.
func (p *Proc) BeginPhase(name string) { p.phase = name }

// Rank implements comm.Comm.
func (p *Proc) Rank() int { return p.rank }

// Size implements comm.Comm.
func (p *Proc) Size() int { return p.m.size }

// Send implements comm.Comm. The payload of every part is copied, so the
// caller may reuse its buffers immediately.
func (p *Proc) Send(dst int, m comm.Message) {
	if dst < 0 || dst >= p.m.size {
		panic(fmt.Sprintf("live: rank %d sends to invalid rank %d", p.rank, dst))
	}
	cp := comm.Message{Tag: m.Tag, Parts: make([]comm.Part, len(m.Parts))}
	var total int
	for _, part := range m.Parts {
		total += len(part.Data)
	}
	// One backing allocation for all parts; each part gets a full slice
	// expression so appends through one part cannot bleed into the next.
	var backing []byte
	if total > 0 {
		backing = make([]byte, 0, total)
	}
	var bytes int64
	for i, part := range m.Parts {
		if part.Data == nil {
			// Length-only part (simulator path): preserve the declared size.
			cp.Parts[i] = comm.Part{Origin: part.Origin, Size: part.Size}
			bytes += int64(part.Size)
			continue
		}
		start := len(backing)
		backing = append(backing, part.Data...)
		cp.Parts[i] = comm.Part{Origin: part.Origin, Data: backing[start:len(backing):len(backing)]}
		bytes += int64(len(part.Data))
	}
	var t0 time.Time
	if p.m.tr != nil {
		t0 = time.Now()
	}
	ib := p.m.inboxes[dst]
	ib.mu.Lock()
	ib.boxes[p.rank].Push(cp)
	ib.cond.Broadcast()
	ib.mu.Unlock()
	p.stats.Sends++
	p.stats.SendBytes += bytes
	if p.m.tr != nil {
		wall := p.m.wall()
		p.m.tr.Trace(obs.Event{
			Kind: obs.KindSend, Rank: p.rank, Peer: dst, Bytes: int(bytes),
			Parts: len(cp.Parts), Tag: cp.Tag, Wall: wall,
			Dur: network.Time(time.Since(t0).Nanoseconds()), Iter: p.iter, Phase: p.phase,
		})
	}
}

// Recv implements comm.Comm. With Options.RecvTimeout set, a wait
// exceeding the timeout panics with a deadline error naming this rank
// and src; the machine then aborts and Run returns that error.
func (p *Proc) Recv(src int) comm.Message {
	if src < 0 || src >= p.m.size {
		panic(fmt.Sprintf("live: rank %d receives from invalid rank %d", p.rank, src))
	}
	ib := p.m.inboxes[p.rank]
	var t0 time.Time
	if p.m.tr != nil {
		t0 = time.Now()
	}
	ib.mu.Lock()
	box := &ib.boxes[src]
	waited := box.Len() == 0
	var deadline time.Time
	if waited && p.m.recvTimeout > 0 {
		deadline = time.Now().Add(p.m.recvTimeout)
		ib.waker.Arm(ib.cond, p.m.recvTimeout)
		defer ib.waker.Stop()
	}
	for box.Len() == 0 {
		if p.m.aborted.Load() {
			ib.mu.Unlock()
			panic(errAbort{cause: fmt.Sprintf("recv from %d", src)})
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			ib.mu.Unlock()
			panic(fmt.Errorf("live: rank %d: recv from %d exceeded %v deadline", p.rank, src, p.m.recvTimeout))
		}
		ib.cond.Wait()
	}
	m := box.Pop()
	ib.mu.Unlock()
	p.stats.Recvs++
	p.stats.RecvBytes += int64(m.Len())
	if p.m.tr != nil {
		wall := p.m.wall()
		spent := network.Time(time.Since(t0).Nanoseconds())
		if waited {
			p.m.tr.Trace(obs.Event{
				Kind: obs.KindWait, Rank: p.rank, Peer: src, Wall: wall,
				Dur: spent, Iter: p.iter, Phase: p.phase,
			})
			spent = 0 // the blocked span is the wait slice, not the recv
		}
		p.m.tr.Trace(obs.Event{
			Kind: obs.KindRecv, Rank: p.rank, Peer: src, Bytes: m.Len(),
			Parts: len(m.Parts), Tag: m.Tag, Wall: wall, Dur: spent,
			Iter: p.iter, Phase: p.phase,
		})
	}
	return m
}

// Barrier implements comm.Comm.
func (p *Proc) Barrier() {
	var t0 time.Time
	if p.m.tr != nil {
		t0 = time.Now()
	}
	if err := p.m.bar.Wait(p.rank, p.m.recvTimeout, nil); err != nil {
		var stall *comm.StallError
		if errors.As(err, &stall) {
			// A root cause, not an unwind: this rank is the one stalled.
			panic(fmt.Errorf("live: rank %d: barrier: %w", p.rank, stall))
		}
		panic(errAbort{cause: "barrier"})
	}
	if p.m.tr != nil {
		p.m.tr.Trace(obs.Event{
			Kind: obs.KindBarrier, Rank: p.rank, Peer: -1, Wall: p.m.wall(),
			Dur: network.Time(time.Since(t0).Nanoseconds()), Iter: p.iter, Phase: p.phase,
		})
	}
}

// Machine is a persistent live machine: the mailboxes and barrier are
// built once by NewMachine and reused by every Run, each run starting
// from a wiped, rearmed state. Run and Close serialize; a Machine
// supports one run at a time.
type Machine struct {
	mu     sync.Mutex // serializes Run and Close
	m      *machine
	closed bool
}

// NewMachine builds the mailboxes and cyclic barrier for p processors.
// The caller owns the machine and should Close it when done.
func NewMachine(p int) (*Machine, error) {
	if p <= 0 {
		return nil, fmt.Errorf("live: non-positive processor count %d", p)
	}
	m := &machine{size: p, inboxes: make([]*inbox, p)}
	for i := range m.inboxes {
		ib := &inbox{boxes: make([]comm.Queue, p)}
		ib.cond = sync.NewCond(&ib.mu)
		m.inboxes[i] = ib
	}
	m.bar = comm.NewRendezvous(0, p)
	return &Machine{m: m}, nil
}

// Size returns the processor count the machine was built for.
func (mc *Machine) Size() int { return mc.m.size }

// Close releases the machine. It is idempotent; a run must not be in
// flight.
func (mc *Machine) Close() error {
	mc.mu.Lock()
	mc.closed = true
	mc.mu.Unlock()
	return nil
}

// Run executes fn on every processor over the warm mailboxes. Only the
// run fields of opts are consumed afresh on every call (Context,
// RunTimeout, RecvTimeout, Tracer). An aborted run leaves the machine
// usable: the next Run starts from wiped mailboxes, a reset barrier and
// a cleared abort latch.
func (mc *Machine) Run(opts Options, fn func(*Proc)) (*Result, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.closed {
		return nil, errors.New("live: Run on closed machine")
	}
	m := mc.m
	p := m.size
	// Rearm for this run: wipe every mailbox (slots zeroed so a previous
	// run's undelivered payloads become collectable and can never be
	// received here), reset the barrier, clear the abort latch, and
	// attach this run's deadline and tracer.
	for _, ib := range m.inboxes {
		ib.mu.Lock()
		for i := range ib.boxes {
			ib.boxes[i].Reset()
		}
		ib.mu.Unlock()
	}
	m.arming = m.bar.Arm()
	m.abortMu.Lock()
	m.abortCause = nil
	m.abortMu.Unlock()
	m.aborted.Store(false)
	m.recvTimeout = opts.RecvTimeout
	m.tr = opts.Tracer

	// External abort sources: context cancellation and the whole-run
	// deadline. The watcher exits when the run completes.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	var ctxDone <-chan struct{}
	if opts.Context != nil {
		ctxDone = opts.Context.Done()
	}
	var runTimer *time.Timer
	var runTimeoutC <-chan time.Time
	if opts.RunTimeout > 0 {
		runTimer = time.NewTimer(opts.RunTimeout)
		runTimeoutC = runTimer.C
	}
	if ctxDone != nil || runTimeoutC != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-ctxDone:
				m.abort(fmt.Errorf("run canceled: %w", opts.Context.Err()))
			case <-runTimeoutC:
				m.abort(fmt.Errorf("run exceeded %v deadline", opts.RunTimeout))
			case <-watchDone:
			}
		}()
	}

	procs := make([]*Proc, p)
	// roots collects root-cause panics; unwinds collects processors that
	// were unwound by the abort. Root causes take precedence in the
	// returned error.
	roots := make([]error, p)
	unwinds := make([]error, p)
	var wg sync.WaitGroup
	start := time.Now()
	m.start = start
	for i := 0; i < p; i++ {
		pr := &Proc{rank: i, m: m, iter: -1}
		pr.stats.Rank = i
		procs[i] = pr
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if ab, ok := r.(errAbort); ok {
						unwinds[pr.rank] = fmt.Errorf("live: rank %d unwound (%s) after machine abort: %w", pr.rank, ab.cause, m.cause())
						return
					}
					err, ok := r.(error)
					if !ok {
						err = fmt.Errorf("%v", r)
					}
					roots[pr.rank] = fmt.Errorf("live: rank %d panicked: %w", pr.rank, err)
					m.abort(roots[pr.rank])
				}
			}()
			fn(pr)
		}()
	}
	wg.Wait()
	close(watchDone)
	if runTimer != nil {
		runTimer.Stop()
	}
	watchWG.Wait()
	res := &Result{Elapsed: time.Since(start), Procs: make([]ProcStats, p)}
	for i, pr := range procs {
		res.Procs[i] = pr.stats
	}
	for _, e := range roots {
		if e != nil {
			return nil, e
		}
	}
	for _, e := range unwinds {
		if e != nil {
			return nil, e
		}
	}
	return res, nil
}

// Run executes fn concurrently on p processors and returns operation
// counts. If any processor panics, the machine aborts: every processor
// blocked in Recv or Barrier is unwound, and Run returns the first
// processor's error (by rank). Run applies no deadlines; see RunOpts.
func Run(p int, fn func(*Proc)) (*Result, error) {
	return RunOpts(p, Options{}, fn)
}

// RunOpts is Run with deadlines and cancellation (see Options). Every
// failure mode — a panicking rank, a Recv or Barrier wait past
// RecvTimeout, context cancellation, the whole run past RunTimeout —
// unwinds all processors and returns an error; RunOpts never hangs on a
// dead or stuck rank when a deadline is configured. It is the one-shot
// open-run-close wrapper over NewMachine/Machine.Run/Machine.Close.
func RunOpts(p int, opts Options, fn func(*Proc)) (*Result, error) {
	mc, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	return mc.Run(opts, fn)
}
