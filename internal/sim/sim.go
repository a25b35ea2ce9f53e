// Package sim executes an algorithm on a simulated message-passing MPP and
// reports virtual elapsed time plus each processor's counters (sends,
// receives, bytes, waits).
//
// There is one engine — the processors' clocks, the ready heap, the
// per-pair queues and the cost model below — and two drivers of it. Run
// takes an algorithm that is code: each of the p virtual processors runs
// the function in its own goroutine and the engine enforces strictly
// sequential execution, exactly one processor goroutine holding the run
// token at any instant. Replay takes an algorithm that is data (a
// comm.Program): a processor is a program counter, and the caller's
// goroutine steps whichever processor the token would be with. Under both
// a processor may send only while it is the earliest runnable one: before
// every Send the token moves to the runnable processor with the smallest
// scheduling key (ties broken by rank), where the key is the processor's
// virtual clock as of its last communication operation. Send is the only
// operation that touches order-sensitive shared state (link claims, the
// wake of a blocked receiver); a Recv's outcome is a function of its entry
// clock and the arrival stamped at Send time, a barrier's of the largest
// entry clock, so neither hands the token over unless it has to block.
// The result is a deterministic, conservative discrete-event simulation:
// identical inputs produce identical timings, and network link claims are
// issued in (near) nondecreasing virtual-time order. The residual
// approximation — a processor that un-blocks from a receive may claim
// links at a virtual time slightly before links already claimed by
// processors that ran ahead — is second-order and documented in DESIGN.md.
//
// Scheduling is O(log p) per operation: runnable processors live in an
// indexed binary min-heap keyed by (key, rank) that is maintained
// incrementally on every state transition, and done/barrier processors are
// tracked by counters — nothing ever rescans all p processors on the hot
// path. Under Run the token is handed directly from the yielding processor
// to the next one (one channel transfer per hand-off); under Replay moving
// it is a loop iteration. Everything a run needs —
// the processor slab, the heap, the p×p queue table and the message arena
// behind all queues — belongs to one pooled engine, so a run allocates
// O(1) outside the algorithm bodies and steady-state Send/Recv allocates
// nothing. See DESIGN.md ("Simulator scheduler").
//
// Cost model (see internal/network for the wire side):
//
//	Send:  clock += SendOverhead + ByteCopy·len; message injected at clock,
//	       arrival priced by the contention-aware network.
//	Recv:  completes at max(clock, arrival) + RecvOverhead + ByteCopy·len;
//	       time spent with the clock below the arrival instant is "wait".
//	Barrier: all processors advance to the common instant
//	       max(clock) + ceil(log2 p)·(SendOverhead+RecvOverhead+NetStartup).
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

type procState int

const (
	stateReady procState = iota
	stateBlocked
	stateBarrier
	stateDone
)

// pending is a sent-but-not-yet-received message in a (src,dst) queue:
// what the cost model prices (bytes, part count, tag), when it arrives,
// and under Run the parts themselves, which the receiver gets back.
type pending struct {
	parts   []comm.Part
	tag     int
	bytes   int
	arrival network.Time
	nparts  int32
	lo      int32 // Replay: where the parts' lengths start in the arena
}

// node is one slot of the engine's message arena: a queued message and
// the arena index of the next node of its queue (or of the free list).
type node struct {
	pd   pending
	next int32
}

// queue is the FIFO of one (src,dst) pair: the arena indices of its first
// and last node, both 0 while it is empty (arena slot 0 is never used).
type queue struct{ head, tail int32 }

func (e *engine) push(q *queue, pd pending) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
		e.nodes[i] = node{pd: pd}
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{pd: pd})
	}
	if q.tail != 0 {
		e.nodes[q.tail].next = i
	} else {
		q.head = i
	}
	q.tail = i
	e.queued++
}

// pop dequeues the head of a non-empty queue. The node is zeroed as it
// joins the free list, so a delivered payload's lifetime ends at its
// Recv, not at the end of the run.
func (e *engine) pop(q *queue) pending {
	i := q.head
	pd := e.nodes[i].pd
	if q.head = e.nodes[i].next; q.head == 0 {
		q.tail = 0
	}
	e.nodes[i] = node{next: e.free}
	e.free = i
	e.queued--
	return pd
}

// ProcStats is the per-processor outcome of a run.
type ProcStats struct {
	Rank        int
	Finish      network.Time // local clock when the algorithm returned
	Sends       int
	Recvs       int
	SendBytes   int64
	RecvBytes   int64
	WaitCount   int          // times the processor waited for data
	WaitTime    network.Time // total time spent waiting on receives
	CombineTime network.Time // time charged for combining messages
}

// Result is the outcome of a simulated run.
type Result struct {
	// Elapsed is the makespan: the largest processor finish time.
	Elapsed network.Time
	// Procs holds per-processor statistics, indexed by rank.
	Procs []ProcStats
	// Net holds aggregate wire statistics.
	Net network.Stats
	// Program is the program Replay ran, nil under Run: what a processor
	// did in each iteration is read off it (internal/metrics), not
	// recorded by the run.
	Program *comm.Program
}

// Event is the engine-agnostic trace event (see internal/obs). The
// simulator stamps the virtual-clock fields: Clock is the processor clock
// after the operation, Dur the operation's virtual cost, Arrival the
// message arrival instant (receives only).
type Event = obs.Event

// Tracer observes simulator events (see obs.Tracer). Implementations must
// be fast; they run inline under the scheduler token, which also means
// they need no locking of their own.
type Tracer = obs.Tracer

// Options configure a run.
type Options struct {
	// Tracer, when non-nil, receives every send, recv, wait, barrier and
	// combine event. A wait event is emitted whenever a Recv had to block
	// for its message (the paper's wait parameter): its Dur is the
	// blocked virtual time and its Clock the arrival instant that ended
	// the wait. Events of one rank arrive in that rank's program order;
	// ranks interleave in token order, not in global clock order.
	Tracer Tracer
}

// Proc is one virtual processor: under Run the handle the algorithm
// function gets — it implements comm.Comm, comm.Clock, comm.IterMarker and
// comm.PhaseMarker, and its methods must only be called from the function
// invoked for this processor — under Replay a program counter.
type Proc struct {
	eng  *engine
	rank int

	clock network.Time
	// key orders the ready heap: the clock as of the processor's last
	// communication operation (Send or Recv end, block, barrier release).
	// Combine charges move the clock but not the key, so they are no
	// scheduling points.
	key   network.Time
	state procState
	// heapIdx is the processor's slot in the ready heap, -1 when it is
	// not runnable (blocked, in a barrier, or done).
	heapIdx int
	// waitSrc is the sender this processor is blocked on (stateBlocked).
	waitSrc int

	// resume parks the processor's goroutine (Run).
	resume chan struct{}
	// pc is the next operation of the processor's program (Replay).
	pc int

	sends, recvs         int
	sendBytes, recvBytes int64
	waitCount            int
	waitTime             network.Time
	combineTime          network.Time
	// iter is the iteration events are stamped with: -1 until the first
	// mark or the first send or receive, which opens iteration 0.
	iter  int
	phase string

	err error
}

var _ comm.Comm = (*Proc)(nil)
var _ comm.Clock = (*Proc)(nil)
var _ comm.IterMarker = (*Proc)(nil)
var _ comm.PhaseMarker = (*Proc)(nil)

// engine is the shared state of one run. All fields are owned by the run
// token: only the goroutine currently holding the token (or, before the
// first and after the last handoff, Run itself) touches them, so no locks
// are needed and every access is ordered by the resume/finish channels;
// Replay never leaves its caller's goroutine. Engines are pooled and
// shared by both drivers: the slabs below keep their capacity (and the
// processors their resume channels) from run to run. A pooled engine never
// owns a goroutine — Run spawns the p processor goroutines and has seen
// every one of them finish before it hands the engine back.
type engine struct {
	net    *network.Network
	cfg    network.Config
	p      int
	procs  []Proc
	queues []queue // index src*p+dst
	// nodes is the arena behind every queue, free the head of its free
	// list; queued counts the sent-but-unreceived messages.
	nodes  []node
	free   int32
	queued int
	// regs holds what Replay knows of the processors' registers, processor
	// i's at regs[i*prog.Regs():]; for a program that reads bundles part by
	// part (parts) lens holds the lengths of the parts, a register's and
	// a message's a window of it.
	regs  []reg
	parts bool
	lens  []int32

	// ready is the indexed binary min-heap of runnable processors, keyed
	// by (key, rank). procs[i].heapIdx tracks positions.
	ready []*Proc
	// doneCount and barrierCount replace full-state rescans: the run is
	// over when doneCount == p, and a barrier releases when
	// barrierCount+doneCount == p with barrierCount > 0.
	doneCount    int
	barrierCount int

	opts    Options
	err     error // terminal scheduler error (deadlock, bad program)
	aborted bool

	// finish carries the token back to Run when the run ends, and acks
	// each unwound processor during drain. Buffered so a p==0 run (or the
	// final handoff) never self-blocks.
	finish chan struct{}
}

// idle is the free list of engines, at most one per P: a bounded stack
// under a mutex rather than a sync.Pool. A sync.Pool keeps what is Put in
// a per-P slot no other P can take from, so a figure pass — two workers, a
// new pair of goroutines per figure, a GC cycle every few milliseconds
// moving them between Ps — found its pool empty a dozen times per pass, and
// a fresh engine re-makes its slabs and the processors' resume channels,
// how often depending on scheduling. With the list, what a simulated run
// allocates is a function of its inputs.
// The price is that up to GOMAXPROCS idle engines (≈0.7 MB each at
// p = 256, the p×p queue table most of it) stay reachable until the
// process exits.
var idle struct {
	sync.Mutex
	engines []*engine
}

// acquire takes an engine from the free list (a new one when the list is
// empty) and arms it for a run on nw: all p processors runnable at clock
// 0, every queue empty.
func acquire(nw *network.Network, opts Options) *engine {
	var e *engine
	idle.Lock()
	if n := len(idle.engines); n > 0 {
		e, idle.engines = idle.engines[n-1], idle.engines[:n-1]
	}
	idle.Unlock()
	if e == nil {
		e = &engine{nodes: make([]node, 1), finish: make(chan struct{}, 1)}
	}
	p := nw.Placement().Size()
	e.net, e.cfg, e.p, e.opts = nw, nw.Config(), p, opts
	if cap(e.procs) < p {
		e.procs = make([]Proc, p)
		e.queues = make([]queue, p*p)
		e.ready = make([]*Proc, 0, p)
	}
	// A replay that was abandoned left its runnable processors in the heap.
	e.procs, e.queues, e.ready = e.procs[:p], e.queues[:p*p], e.ready[:0]
	// Pushing in rank order seeds the deterministic (key, rank) dispatch
	// order.
	for i := range e.procs {
		pr := &e.procs[i]
		*pr = Proc{eng: e, rank: i, iter: -1, resume: pr.resume}
		e.heapPush(pr)
	}
	return e
}

// release returns the engine to the free list, or to the collector when
// the list is full. Messages nobody received (an abandoned run, or an
// algorithm that over-sends) are dropped so the list pins no payload and
// the next run finds every queue empty; the processors forget the engine,
// so a handle that outlives its run faults instead of touching the next
// one.
func (e *engine) release() {
	if e.queued > 0 {
		clear(e.nodes)
		clear(e.queues)
	}
	e.nodes, e.free, e.queued = e.nodes[:1], 0, 0
	// Few programs need more than a register per processor, and those that
	// do need up to p each: too much to sit in every pooled engine.
	if cap(e.regs) > cap(e.procs) {
		e.regs = nil
	}
	if cap(e.lens) > 64*cap(e.procs) {
		e.lens = nil
	}
	for i := range e.procs {
		e.procs[i].eng = nil
	}
	e.net, e.opts, e.err, e.aborted = nil, Options{}, nil, false
	e.doneCount, e.barrierCount = 0, 0
	idle.Lock()
	if len(idle.engines) < runtime.GOMAXPROCS(0) {
		idle.engines = append(idle.engines, e)
	}
	idle.Unlock()
}

// errAbort unwinds processor goroutines when the run is abandoned
// (deadlock), so Run does not leak blocked goroutines.
type errAbort struct{}

// Run executes fn on every processor of the simulated machine described by
// net (one processor per placed rank) and returns the timing result. The
// network's link state and statistics are reset first, so a Network can be
// reused across runs.
func Run(net *network.Network, fn func(*Proc), opts Options) (*Result, error) {
	net.Reset()
	e := acquire(net, opts)
	defer e.release()
	for i := range e.procs {
		pr := &e.procs[i]
		if pr.resume == nil {
			pr.resume = make(chan struct{})
		}
		go pr.run(fn)
	}
	// Hand the token to the earliest processor and wait for it to come
	// back when the run is over.
	e.handoff(e.next())
	<-e.finish
	if e.err != nil {
		e.drain()
		return nil, e.err
	}
	return e.result(nil)
}

// result assembles the outcome of a finished run of prog (nil under Run).
func (e *engine) result(prog *comm.Program) (*Result, error) {
	res := &Result{Procs: make([]ProcStats, e.p), Net: e.net.Stats(), Program: prog}
	for i := range e.procs {
		pr := &e.procs[i]
		if pr.err != nil {
			return nil, pr.err
		}
		if pr.clock > res.Elapsed {
			res.Elapsed = pr.clock
		}
		res.Procs[i] = ProcStats{
			Rank: i, Finish: pr.clock,
			Sends: pr.sends, Recvs: pr.recvs,
			SendBytes: pr.sendBytes, RecvBytes: pr.recvBytes,
			WaitCount: pr.waitCount, WaitTime: pr.waitTime,
			CombineTime: pr.combineTime,
		}
	}
	return res, nil
}

// run is the body of one processor goroutine: wait for the token, execute
// fn, and pass the token on for good.
func (p *Proc) run(fn func(*Proc)) {
	e := p.eng
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errAbort); !ok {
				p.err = fmt.Errorf("sim: rank %d panicked: %v", p.rank, r)
			}
		}
		p.finish()
		if e.aborted {
			e.finish <- struct{}{}
			return
		}
		e.handoff(e.next())
	}()
	if e.aborted {
		return
	}
	fn(p)
}

// less orders the ready heap by (key, rank) — the same total order the
// seed scheduler's linear scan used, so timings are bit-identical.
func (e *engine) less(a, b *Proc) bool {
	return a.key < b.key || (a.key == b.key && a.rank < b.rank)
}

func (e *engine) heapUp(i int) {
	pr := e.ready[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(pr, e.ready[parent]) {
			break
		}
		e.ready[i] = e.ready[parent]
		e.ready[i].heapIdx = i
		i = parent
	}
	e.ready[i] = pr
	pr.heapIdx = i
}

// heapDown sifts the element at i toward the leaves; it reports whether
// the element moved.
func (e *engine) heapDown(i int) bool {
	pr := e.ready[i]
	start := i
	n := len(e.ready)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && e.less(e.ready[r], e.ready[l]) {
			c = r
		}
		if !e.less(e.ready[c], pr) {
			break
		}
		e.ready[i] = e.ready[c]
		e.ready[i].heapIdx = i
		i = c
	}
	e.ready[i] = pr
	pr.heapIdx = i
	return i != start
}

func (e *engine) heapPush(pr *Proc) {
	e.ready = append(e.ready, pr)
	pr.heapIdx = len(e.ready) - 1
	e.heapUp(pr.heapIdx)
}

func (e *engine) heapRemove(pr *Proc) {
	i := pr.heapIdx
	last := len(e.ready) - 1
	moved := e.ready[last]
	e.ready = e.ready[:last]
	pr.heapIdx = -1
	if i == last {
		return
	}
	e.ready[i] = moved
	moved.heapIdx = i
	if !e.heapDown(i) {
		e.heapUp(i)
	}
}

// next picks the processor the token moves to: the root of the ready
// heap. When no processor is runnable it releases the barrier (if every
// live processor reached it) or records the terminal condition — normal
// completion (nil, e.err == nil) or deadlock (nil, e.err set).
func (e *engine) next() *Proc {
	for {
		if len(e.ready) > 0 {
			return e.ready[0]
		}
		if e.doneCount == e.p {
			return nil
		}
		if e.barrierCount > 0 && e.barrierCount+e.doneCount == e.p {
			e.releaseBarrier()
			continue
		}
		e.err = e.deadlockError()
		return nil
	}
}

// handoff transfers the run token: directly to the next processor's
// goroutine, or back to Run when the run is over.
func (e *engine) handoff(next *Proc) {
	if next != nil {
		next.resume <- struct{}{}
		return
	}
	e.finish <- struct{}{}
}

// drain terminates every unfinished processor goroutine after the run is
// abandoned: each is resumed once and unwinds via the errAbort panic (or
// skips its function body if it never started).
func (e *engine) drain() {
	e.aborted = true
	for i := range e.procs {
		if pr := &e.procs[i]; pr.state != stateDone {
			pr.resume <- struct{}{}
			<-e.finish
		}
	}
}

// releaseBarrier advances every waiting processor to the common barrier
// exit instant and makes them runnable again.
func (e *engine) releaseBarrier() {
	var t network.Time
	for i := range e.procs {
		if pr := &e.procs[i]; pr.state == stateBarrier && pr.clock > t {
			t = pr.clock
		}
	}
	steps := network.Time(bits.Len(uint(e.p - 1))) // ceil(log2 p)
	t += steps * (e.cfg.SendOverhead + e.cfg.RecvOverhead + e.cfg.NetStartup)
	for i := range e.procs {
		if pr := &e.procs[i]; pr.state == stateBarrier {
			pr.clock, pr.key = t, t
			pr.state = stateReady
			e.heapPush(pr)
		}
	}
	e.barrierCount = 0
}

func (e *engine) deadlockError() error {
	msg := "sim: deadlock:"
	for i := range e.procs {
		switch pr := &e.procs[i]; pr.state {
		case stateBlocked:
			msg += fmt.Sprintf(" rank %d waits on %d;", pr.rank, pr.waitSrc)
		case stateBarrier:
			msg += fmt.Sprintf(" rank %d in barrier;", pr.rank)
		}
	}
	for i := range e.procs {
		if err := e.procs[i].err; err != nil {
			msg += " first panic: " + err.Error()
		}
	}
	return errors.New(msg)
}

// Rank implements comm.Comm.
func (p *Proc) Rank() int { return p.rank }

// Size implements comm.Comm.
func (p *Proc) Size() int { return p.eng.p }

// Now returns the processor's current virtual clock.
func (p *Proc) Now() network.Time { return p.clock }

// wait hands the token to next (to Run when nil) and parks until this
// processor is rescheduled.
func (p *Proc) wait(next *Proc) {
	p.eng.handoff(next)
	<-p.resume
	if p.eng.aborted {
		panic(errAbort{})
	}
}

// park hands the token on and blocks until rescheduled; the caller must
// already have taken this processor out of the ready heap. next() can
// still return this very processor: releasing a barrier re-inserts every
// waiter, and the caller — the last to arrive — is the new heap minimum
// when it has the lowest rank (all waiters exit at the same instant). In
// that case the processor keeps the token; handing off to itself would
// block forever on its own resume channel.
func (p *Proc) park() {
	if next := p.eng.next(); next != p {
		p.wait(next)
	}
}

// rekey records the end of a communication operation: the scheduling key
// catches up with the clock (it only grows, so the processor can only
// move toward the leaves of the heap).
func (p *Proc) rekey() {
	p.key = p.clock
	p.eng.heapDown(p.heapIdx)
}

// Send implements comm.Comm. See the package comment for the cost model.
// It is the engine's one scheduling point for a runnable processor: the
// token first moves to whoever is earlier, so link claims and wakes are
// issued in (key, rank) order.
func (p *Proc) Send(dst int, m comm.Message) {
	e := p.eng
	if dst < 0 || dst >= e.p {
		panic(fmt.Sprintf("sim: rank %d sends to invalid rank %d", p.rank, dst))
	}
	if next := e.ready[0]; next != p {
		p.wait(next)
	}
	p.send(dst, pending{parts: m.Parts, tag: m.Tag, nparts: int32(len(m.Parts)), bytes: m.Len()})
}

// send charges the processor for sending pd, prices its transfer and
// queues it for dst. The processor must be the earliest runnable one.
func (p *Proc) send(dst int, pd pending) {
	e := p.eng
	cost := e.cfg.SendOverhead + e.cfg.CopyCost(pd.bytes)
	p.clock += cost
	pd.arrival = e.net.Transfer(p.rank, dst, pd.bytes, p.clock)
	e.push(&e.queues[p.rank*e.p+dst], pd)
	p.sends++
	p.sendBytes += int64(pd.bytes)
	p.iter = max(p.iter, 0)
	if t := e.opts.Tracer; t != nil {
		t.Trace(Event{Kind: obs.KindSend, Rank: p.rank, Peer: dst, Bytes: pd.bytes, Parts: int(pd.nparts), Tag: pd.tag, Clock: p.clock, Dur: cost, Arrival: pd.arrival, Iter: p.iter, Phase: p.phase})
	}
	p.rekey()
	// Wake the destination if it is blocked waiting for exactly us.
	d := &e.procs[dst]
	if d.state == stateBlocked && d.waitSrc == p.rank {
		d.state = stateReady
		e.heapPush(d)
	}
}

// Recv implements comm.Comm. It keeps the token unless the message has
// not been sent yet.
func (p *Proc) Recv(src int) comm.Message {
	e := p.eng
	if src < 0 || src >= e.p {
		panic(fmt.Sprintf("sim: rank %d receives from invalid rank %d", p.rank, src))
	}
	if e.queues[src*e.p+p.rank].head == 0 {
		p.block(src)
		p.park()
	}
	pd := p.receive(src)
	return comm.Message{Tag: pd.tag, Parts: pd.parts}
}

// block takes the processor out of the ready heap until src sends to it,
// with the entry clock as key; only src's Send wakes it, and it has queued
// the message by then.
func (p *Proc) block(src int) {
	p.state = stateBlocked
	p.waitSrc = src
	p.key = p.clock
	p.eng.heapRemove(p)
}

// receive takes the next message of src, which must be queued, and charges
// the processor for waiting on it and for receiving it.
func (p *Proc) receive(src int) pending {
	e := p.eng
	pd := e.pop(&e.queues[src*e.p+p.rank])
	if pd.arrival > p.clock {
		wait := pd.arrival - p.clock
		p.waitCount++
		p.waitTime += wait
		p.clock = pd.arrival
		if t := e.opts.Tracer; t != nil {
			t.Trace(Event{Kind: obs.KindWait, Rank: p.rank, Peer: src, Clock: pd.arrival, Dur: wait, Arrival: pd.arrival, Iter: p.iter, Phase: p.phase})
		}
	}
	cost := e.cfg.RecvOverhead + e.cfg.CopyCost(pd.bytes)
	p.clock += cost
	p.recvs++
	p.recvBytes += int64(pd.bytes)
	p.iter = max(p.iter, 0)
	if t := e.opts.Tracer; t != nil {
		t.Trace(Event{Kind: obs.KindRecv, Rank: p.rank, Peer: src, Bytes: pd.bytes, Parts: int(pd.nparts), Tag: pd.tag, Clock: p.clock, Dur: cost, Arrival: pd.arrival, Iter: p.iter, Phase: p.phase})
	}
	p.rekey()
	return pd
}

// Barrier implements comm.Comm.
func (p *Proc) Barrier() {
	p.arrive()
	p.park()
}

// arrive takes the processor out of the ready heap until every live
// processor has reached the barrier.
func (p *Proc) arrive() {
	e := p.eng
	if t := e.opts.Tracer; t != nil {
		t.Trace(Event{Kind: obs.KindBarrier, Rank: p.rank, Peer: -1, Clock: p.clock, Iter: p.iter, Phase: p.phase})
	}
	p.state = stateBarrier
	e.barrierCount++
	e.heapRemove(p)
}

// finish retires the processor: its algorithm has returned, its program
// has ended or its goroutine is unwinding.
func (p *Proc) finish() {
	if p.heapIdx >= 0 {
		p.eng.heapRemove(p)
	}
	p.state = stateDone
	p.eng.doneCount++
}

// AdvanceCombine implements comm.Clock: charge the local cost of merging n
// received bytes into the accumulated bundle. Only the clock moves; the
// scheduling key waits for the next communication operation.
func (p *Proc) AdvanceCombine(n int) {
	d := p.eng.cfg.CombineCost(n)
	p.clock += d
	p.combineTime += d
	if t := p.eng.opts.Tracer; t != nil {
		t.Trace(Event{Kind: obs.KindCombine, Rank: p.rank, Peer: -1, Bytes: n, Clock: p.clock, Dur: d, Iter: p.iter, Phase: p.phase})
	}
}

// BeginIter implements comm.IterMarker.
func (p *Proc) BeginIter(i int) {
	if i < 0 {
		panic(fmt.Sprintf("sim: rank %d begins negative iteration %d", p.rank, i))
	}
	p.iter = i
}

// BeginPhase implements comm.PhaseMarker: subsequent traced events carry
// the label. It costs nothing on the virtual clock.
func (p *Proc) BeginPhase(name string) { p.phase = name }
