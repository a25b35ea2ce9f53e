// Package sim replays an algorithm's program on a simulated
// message-passing MPP and reports virtual elapsed time plus each
// processor's counters (sends, receives, bytes, waits).
//
// The algorithm is data (a comm.Program): a processor is a program
// counter, and the caller's goroutine steps whichever processor holds the
// run token. A processor may send only while it is the earliest runnable
// one: before every Send the token moves to the runnable processor with
// the smallest scheduling key (ties broken by rank), where the key is the
// processor's virtual clock as of its last communication operation. Send
// is the only operation that touches order-sensitive shared state (link
// claims, the wake of a blocked receiver); a Recv's outcome is a function
// of its entry clock and the arrival stamped at Send time, a barrier's of
// the largest entry clock, so neither hands the token over unless it has
// to block. The result is a deterministic, conservative discrete-event
// simulation: identical inputs produce identical timings, and network
// link claims are issued in (near) nondecreasing virtual-time order. The
// residual approximation — a processor that un-blocks from a receive may
// claim links at a virtual time slightly before links already claimed by
// processors that ran ahead — is second-order and documented in DESIGN.md.
//
// Scheduling is O(log p) per operation: runnable processors live in an
// indexed binary min-heap keyed by (key, rank) that is maintained
// incrementally on every state transition, and done/barrier processors are
// tracked by counters — nothing ever rescans all p processors on the hot
// path. Moving the token is a loop iteration. Everything a run needs —
// the processor slab, the heap, the p×p queue table and the message arena
// behind all queues — belongs to one pooled engine, so a run allocates
// O(1) outside its program and steady-state Send/Recv allocates nothing.
// See DESIGN.md ("Simulator scheduler").
//
// Cost model (see internal/network for the wire side):
//
//	Send:  clock += SendOverhead + ByteCopy·len; message injected at clock,
//	       arrival priced by the contention-aware network.
//	Recv:  completes at max(clock, arrival) + RecvOverhead + ByteCopy·len;
//	       time spent with the clock below the arrival instant is "wait".
//	Barrier: all processors advance to the common instant
//	       max(clock) + ceil(log2 p)·(SendOverhead+RecvOverhead+NetStartup).
//	Combine: clock += CombineByte·len, charged by the operations that
//	       merge or fold a received message and by OpCombine.
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
// what the cost model prices (bytes, part count, tag) and when it arrives.
type pending struct {
	tag     int
	bytes   int
	arrival network.Time
	nparts  int32
	lo      int32 // where the parts' lengths start in the arena
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

// pop dequeues the head of a non-empty queue.
func (e *engine) pop(q *queue) pending {
	i := q.head
	pd := e.nodes[i].pd
	if q.head = e.nodes[i].next; q.head == 0 {
		q.tail = 0
	}
	e.nodes[i].next = e.free
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
	// Program is the program the run replayed: what a processor did in
	// each iteration is read off it (internal/metrics), not recorded by
	// the run.
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

// proc is one virtual processor: a program counter and its clock and
// counters.
type proc struct {
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
	// pc is the next operation of the processor's program.
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
}

// engine is the shared state of one run, which never leaves its caller's
// goroutine. Engines are pooled: the slabs below keep their capacity from
// run to run.
type engine struct {
	net    *network.Network
	cfg    network.Config
	p      int
	procs  []proc
	queues []queue // index src*p+dst
	// nodes is the arena behind every queue, free the head of its free
	// list; queued counts the sent-but-unreceived messages.
	nodes  []node
	free   int32
	queued int
	// regs holds what the run knows of the processors' registers, processor
	// i's at regs[i*prog.Regs():]; for a program that reads bundles part by
	// part (parts) lens holds the lengths of the parts, a register's and
	// a message's a window of it.
	regs  []reg
	parts bool
	lens  []int32

	// ready is the indexed binary min-heap of runnable processors, keyed
	// by (key, rank). procs[i].heapIdx tracks positions.
	ready []*proc
	// doneCount and barrierCount replace full-state rescans: the run is
	// over when doneCount == p, and a barrier releases when
	// barrierCount+doneCount == p with barrierCount > 0.
	doneCount    int
	barrierCount int

	opts Options
	err  error // terminal scheduler error (deadlock, bad program)
}

// idle is the free list of engines, at most one per P: a bounded stack
// under a mutex rather than a sync.Pool. A sync.Pool keeps what is Put in
// a per-P slot no other P can take from, so a figure pass — two workers, a
// new pair of goroutines per figure, a GC cycle every few milliseconds
// moving them between Ps — found its pool empty a dozen times per pass, and
// a fresh engine re-makes its slabs, how often depending on scheduling. With the list, what a simulated run
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
		e = &engine{nodes: make([]node, 1)}
	}
	p := nw.Placement().Size()
	e.net, e.cfg, e.p, e.opts = nw, nw.Config(), p, opts
	if cap(e.procs) < p {
		e.procs = make([]proc, p)
		e.queues = make([]queue, p*p)
		e.ready = make([]*proc, 0, p)
	}
	// A replay that was abandoned left its runnable processors in the heap.
	e.procs, e.queues, e.ready = e.procs[:p], e.queues[:p*p], e.ready[:0]
	// Pushing in rank order seeds the deterministic (key, rank) dispatch
	// order.
	for i := range e.procs {
		pr := &e.procs[i]
		*pr = proc{eng: e, rank: i, iter: -1}
		e.heapPush(pr)
	}
	return e
}

// release returns the engine to the free list, or to the collector when
// the list is full. Messages nobody received (an abandoned run, or a
// program that over-sends) are dropped so the next run finds every queue
// empty.
func (e *engine) release() {
	if e.queued > 0 {
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
	e.net, e.opts, e.err = nil, Options{}, nil
	e.doneCount, e.barrierCount = 0, 0
	idle.Lock()
	if len(idle.engines) < runtime.GOMAXPROCS(0) {
		idle.engines = append(idle.engines, e)
	}
	idle.Unlock()
}

// result assembles the outcome of a finished run of prog.
func (e *engine) result(prog *comm.Program) *Result {
	res := &Result{Procs: make([]ProcStats, e.p), Net: e.net.Stats(), Program: prog}
	for i := range e.procs {
		pr := &e.procs[i]
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
	return res
}

// less orders the ready heap by (key, rank) — the same total order the
// seed scheduler's linear scan used, so timings are bit-identical.
func (e *engine) less(a, b *proc) bool {
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

func (e *engine) heapPush(pr *proc) {
	e.ready = append(e.ready, pr)
	pr.heapIdx = len(e.ready) - 1
	e.heapUp(pr.heapIdx)
}

func (e *engine) heapRemove(pr *proc) {
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
func (e *engine) next() *proc {
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
	return errors.New(msg)
}

// rekey records the end of a communication operation: the scheduling key
// catches up with the clock (it only grows, so the processor can only
// move toward the leaves of the heap).
func (p *proc) rekey() {
	p.key = p.clock
	p.eng.heapDown(p.heapIdx)
}

// send charges the processor for sending pd, prices its transfer and
// queues it for dst. The processor must be the earliest runnable one.
func (p *proc) send(dst int, pd pending) {
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

// block takes the processor out of the ready heap until src sends to it,
// with the entry clock as key; only src's Send wakes it, and it has queued
// the message by then.
func (p *proc) block(src int) {
	p.state = stateBlocked
	p.waitSrc = src
	p.key = p.clock
	p.eng.heapRemove(p)
}

// receive takes the next message of src, which must be queued, and charges
// the processor for waiting on it and for receiving it.
func (p *proc) receive(src int) pending {
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

// arrive takes the processor out of the ready heap until every live
// processor has reached the barrier.
func (p *proc) arrive() {
	e := p.eng
	if t := e.opts.Tracer; t != nil {
		t.Trace(Event{Kind: obs.KindBarrier, Rank: p.rank, Peer: -1, Clock: p.clock, Iter: p.iter, Phase: p.phase})
	}
	p.state = stateBarrier
	e.barrierCount++
	e.heapRemove(p)
}

// finish retires the processor: its program has ended.
func (p *proc) finish() {
	if p.heapIdx >= 0 {
		p.eng.heapRemove(p)
	}
	p.state = stateDone
	p.eng.doneCount++
}

// combine charges the local cost of merging n received bytes into the
// accumulated bundle. Only the clock moves; the scheduling key waits for
// the next communication operation.
func (p *proc) combine(n int) {
	d := p.eng.cfg.CombineCost(n)
	p.clock += d
	p.combineTime += d
	if t := p.eng.opts.Tracer; t != nil {
		t.Trace(Event{Kind: obs.KindCombine, Rank: p.rank, Peer: -1, Bytes: n, Clock: p.clock, Dur: d, Iter: p.iter, Phase: p.phase})
	}
}
