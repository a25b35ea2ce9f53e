package sim

import (
	"fmt"
	"runtime"

	"repro/internal/comm"
	"repro/internal/network"
)

// reg is what Replay knows of a register: the length and part count of the
// bundle it holds — all the cost model and the trace ever ask of a message
// (its tag is the one it started with, 0: operations move parts, not tags)
// — and, for a program that reads bundles part by part, where the parts'
// lengths are in the engine's length arena: lens[lo:lo+parts]. Sixteen
// bytes: a program of p registers per rank has p² of them.
type reg struct {
	bytes     int
	parts, lo int32
}

// Replay executes prog on the simulated machine described by net (one
// processor per placed rank) and returns the timing result, with prog in
// its Program field; opts.Tracer sees every event. A rank enters with the
// untagged bundle of parts parts of partLen bytes each that initial
// gives. The network's link state and statistics are reset first, so a
// Network can be reused across runs.
//
// No goroutine is started. The caller's goroutine steps the processor at
// the root of the ready heap until it has to give way — a Send while
// another processor is earlier, a Recv of a message not sent yet, a
// Barrier, the end of its program — and then steps the new root.
//
// A program that selects parts or folds them (comm.Program.SelectsParts)
// prices a selection by the lengths of the parts it picks and a fold by
// the longest part, so for it every register and message keeps the
// lengths of its parts, in order, in an arena the run appends to; any
// other program needs a bundle's length and part count only.
func Replay(net *network.Network, prog *comm.Program, initial func(rank int) (partLen, parts int), opts Options) (*Result, error) {
	e, err := execute(net, prog, initial, opts)
	if err != nil {
		return nil, err
	}
	defer e.release()
	return e.result(prog), nil
}

// Makespan is an untraced Replay for a caller that reads the makespan
// only: it builds no Result.
func Makespan(net *network.Network, prog *comm.Program, initial func(rank int) (partLen, parts int)) (network.Time, error) {
	e, err := execute(net, prog, initial, Options{})
	if err != nil {
		return 0, err
	}
	defer e.release()
	return e.elapsed(), nil
}

// execute runs prog to its end on an engine of its own, which the caller
// reads and releases; a run that fails releases it itself.
func execute(net *network.Network, prog *comm.Program, initial func(rank int) (partLen, parts int), opts Options) (*engine, error) {
	if p := net.Placement().Size(); prog.P() != p {
		return nil, fmt.Errorf("sim: program for %d ranks replayed on a machine of %d", prog.P(), p)
	}
	// A replay never blocks, so it would keep its P from the runtime's own
	// goroutines until the preemption tick. With every P busy replaying
	// (a figure's worker pool) the collector's mark workers start late and
	// the heap overshoots its goal by whatever is allocated meanwhile: one
	// yield per replay, free when nothing else wants to run, keeps the peak
	// heap of a figure pass a third lower.
	runtime.Gosched()
	net.Reset()
	e := acquire(net, opts)
	nregs := prog.Regs()
	if n := e.p * nregs; cap(e.regs) < n {
		e.regs = make([]reg, n)
	} else {
		e.regs = e.regs[:n]
		clear(e.regs)
	}
	e.parts = prog.SelectsParts()
	e.lens = e.lens[:0]
	for i := 0; i < e.p; i++ {
		r := &e.regs[i*nregs]
		partLen, parts := initial(i)
		r.bytes, r.parts = partLen*parts, int32(parts)
		if e.parts {
			r.lo = int32(len(e.lens))
			for range parts {
				e.lens = append(e.lens, int32(partLen))
			}
		}
	}
	for e.err == nil {
		pr := e.next()
		if pr == nil {
			break
		}
		e.step(pr, prog)
	}
	if err := e.err; err != nil {
		e.release()
		return nil, err
	}
	return e, nil
}

// step executes pr's program from where it stopped until pr has to give
// way: the operation it stops at is picked up again when pr is next at
// the root of the heap (a Barrier, which completes by being released, is
// stepped over at once).
func (e *engine) step(pr *proc, prog *comm.Program) {
	ops := prog.Ops(pr.rank)
	regs := e.regs[pr.rank*prog.Regs():][:prog.Regs()]
	for pr.pc < len(ops) {
		op := ops[pr.pc]
		if op.Adv() > 0 {
			// From the program's last mark, which moves only once the
			// operation is done: one that gives way is stepped again.
			pr.iter = pr.mark + op.Adv()
		}
		switch op.Kind {
		case comm.OpSend, comm.OpMove, comm.OpToken, comm.OpSendParts:
			peer := op.Peer()
			var s comm.Sel
			if op.Kind == comm.OpSendParts {
				s, peer = prog.Selection(op)
			}
			if !e.checkPeer(pr, "sends to", peer) || e.ready[0].rank != pr.rank {
				return
			}
			var pd pending
			switch op.Kind {
			case comm.OpToken:
				tag, bytes := prog.Token(op)
				pd.tag = tag
				if bytes > 0 {
					pd.bytes, pd.nparts = bytes, 1
					if e.parts {
						pd.lo = e.store(bytes)
					}
				}
			case comm.OpSendParts:
				r, ok := e.pick(pr, regs[op.Reg()], s)
				if !ok {
					return
				}
				pd.bytes, pd.nparts, pd.lo = r.bytes, r.parts, r.lo
			default:
				r := &regs[op.Reg()]
				pd.nparts, pd.bytes, pd.lo = r.parts, r.bytes, r.lo
				if op.Kind == comm.OpMove {
					*r = reg{}
				}
			}
			pr.send(peer, pd)
		case comm.OpRecv, comm.OpMerge, comm.OpDrop, comm.OpFold:
			var pd pending
			if src := op.Peer(); op.Kind != comm.OpFold || src >= 0 {
				if !e.checkPeer(pr, "receives from", src) {
					return
				}
				if e.queues[src*e.p+pr.rank].head == 0 {
					pr.block(src)
					return
				}
				pd = pr.receive(src)
			}
			msg := reg{bytes: pd.bytes, parts: pd.nparts, lo: pd.lo}
			switch r := &regs[op.Reg()]; op.Kind {
			case comm.OpRecv:
				*r = msg
			case comm.OpMerge:
				pr.combine(pd.bytes)
				*r = e.join(*r, msg)
			case comm.OpFold:
				if op.Peer() >= 0 {
					pr.combine(pd.bytes)
				}
				*r = e.fold(*r, msg)
			}
		case comm.OpTake:
			s, dst := prog.Selection(op)
			r, ok := e.pick(pr, regs[op.Reg()], s)
			if !ok {
				return
			}
			regs[op.Reg()] = reg{}
			regs[dst] = e.join(regs[dst], r)
		case comm.OpBarrier:
			pr.done(op)
			pr.arrive()
			return
		case comm.OpCombine:
			pr.combine(regs[op.Reg()].bytes)
		case comm.OpSwap:
			regs[0], regs[op.Reg()] = regs[op.Reg()], regs[0]
		case comm.OpGrow:
			// Sizes the bundle's array where bundles exist; nothing to price.
		case comm.OpIter:
			if op.Arg() < 0 {
				e.err = fmt.Errorf("sim: rank %d begins negative iteration %d", pr.rank, op.Arg())
				return
			}
			pr.iter = op.Arg()
		case comm.OpPhase:
			pr.phase = prog.Phase(op.Arg())
		default:
			e.err = fmt.Errorf("sim: rank %d: unknown operation %d", pr.rank, op.Kind)
			return
		}
		pr.done(op)
	}
	pr.finish()
}

// done moves pr past op: the last iteration op marks or begins is the
// program's last mark now.
func (pr *proc) done(op comm.Op) {
	if op.Adv() > 0 || op.Kind == comm.OpIter {
		pr.mark = pr.iter
	}
	pr.pc++
}

// checkPeer checks the peer of a Send or Recv of pr. It reports whether
// the run goes on.
func (e *engine) checkPeer(pr *proc, does string, peer int) bool {
	if peer < 0 || peer >= e.p {
		e.err = fmt.Errorf("sim: rank %d %s invalid rank %d", pr.rank, does, peer)
		return false
	}
	return true
}

// The part lengths of a part-reading program. A register or message is a
// window of the arena, which only grows during a run: a window never
// changes once written, so any number of registers and queued messages
// may share it, and a register whose window ends where the arena does
// grows by appending.

// store appends one part of n bytes to the arena and returns its index.
func (e *engine) store(n int) int32 {
	e.lens = append(e.lens, int32(n))
	return int32(len(e.lens) - 1)
}

// pick returns the parts s selects from r as a register of its own, their
// lengths copied to the end of the arena. An out-of-range selector ends
// the run.
func (e *engine) pick(pr *proc, r reg, s comm.Sel) (reg, bool) {
	if err := s.RangeError(int(r.parts)); err != nil {
		e.err = fmt.Errorf("sim: rank %d: %v", pr.rank, err)
		return reg{}, false
	}
	out := reg{parts: int32(s.Count), lo: int32(len(e.lens))}
	for i := range s.Count {
		n := e.lens[int(r.lo)+s.Index(i, int(r.parts))]
		e.lens = append(e.lens, n)
		out.bytes += int(n)
	}
	return out, true
}

// join returns the register r followed by the parts of m.
func (e *engine) join(r, m reg) reg {
	switch {
	case !e.parts:
	case r.parts == 0:
		r.lo = m.lo
	case m.parts > 0:
		if r.lo+r.parts != int32(len(e.lens)) {
			start := len(e.lens)
			e.lens = append(e.lens, e.lens[r.lo:r.lo+r.parts]...)
			r.lo = int32(start)
		}
		e.lens = append(e.lens, e.lens[m.lo:m.lo+m.parts]...)
	}
	r.bytes += m.bytes
	r.parts += m.parts
	return r
}

// fold returns the one part r and m fold into: as long as their longest
// part, or nothing when both are empty.
func (e *engine) fold(r, m reg) reg {
	if r.parts+m.parts == 0 {
		return reg{}
	}
	longest := 0
	for _, w := range [2]reg{r, m} {
		for _, n := range e.lens[w.lo : w.lo+w.parts] {
			longest = max(longest, int(n))
		}
	}
	return reg{bytes: longest, parts: 1, lo: e.store(longest)}
}
