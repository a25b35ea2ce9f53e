package sim

import (
	"fmt"
	"runtime"

	"repro/internal/comm"
	"repro/internal/network"
)

// reg is what Replay knows of a register: the length and part count of the
// bundle it holds — all the cost model and the trace ever ask of a
// message.
type reg struct{ bytes, parts int }

// Replay executes prog on the simulated machine described by net and
// returns what Run would return for an algorithm whose every processor
// executes its part of prog (comm.Program.Run): the same result, and the
// same events in the same order on opts.Tracer. initial gives the length
// and part count of the bundle a rank enters with.
//
// No goroutine is started. The caller's goroutine steps the processor at
// the root of the ready heap until the operation at which its goroutine
// would have passed the token on under Run — a Send while another
// processor is earlier, a Recv of a message not sent yet, a Barrier, the
// end of its program — and then steps the new root. Order, charges, events
// and the MaxOps count are Run's because they are the same code: only what
// "giving up the token" means differs.
func Replay(net *network.Network, prog *comm.Program, initial func(rank int) (bytes, parts int), opts Options) (*Result, error) {
	if p := net.Placement().Size(); prog.P() != p {
		return nil, fmt.Errorf("sim: program for %d ranks replayed on a machine of %d", prog.P(), p)
	}
	// A replay never blocks, so unlike a Run — which passes through the
	// scheduler at every hand-off — it would keep its P from the runtime's
	// own goroutines until the preemption tick. With every P busy replaying
	// (a figure's worker pool) the collector's mark workers start late and
	// the heap overshoots its goal by whatever is allocated meanwhile: one
	// yield per replay, free when nothing else wants to run, keeps the peak
	// heap of a figure pass a third lower.
	runtime.Gosched()
	net.Reset()
	e := acquire(net, opts)
	defer e.release()
	nregs := prog.Regs()
	if n := e.p * nregs; cap(e.regs) < n {
		e.regs = make([]reg, n)
	} else {
		e.regs = e.regs[:n]
		clear(e.regs)
	}
	for i := 0; i < e.p; i++ {
		r := &e.regs[i*nregs]
		r.bytes, r.parts = initial(i)
	}
	for e.err == nil {
		pr := e.next()
		if pr == nil {
			break
		}
		e.step(pr, prog)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.result()
}

// step executes pr's program from where it stopped until pr has to give
// way: the operation it stops at is picked up again when pr is next at
// the root of the heap (a Barrier, which completes by being released, is
// stepped over at once).
func (e *engine) step(pr *Proc, prog *comm.Program) {
	ops := prog.Ops(pr.rank)
	regs := e.regs[pr.rank*prog.Regs():][:prog.Regs()]
	for pr.pc < len(ops) {
		op := ops[pr.pc]
		switch op.Kind {
		case comm.OpSend, comm.OpMove, comm.OpToken:
			if !pr.begun && !e.begin(pr, "sends to", op.Peer()) {
				return
			}
			if pr.begun = true; e.ready[0] != pr {
				return
			}
			var pd pending
			if op.Kind == comm.OpToken {
				pd.tag = op.Tag()
			} else {
				r := &regs[op.Reg()]
				pd.nparts, pd.bytes = r.parts, r.bytes
				if op.Kind == comm.OpMove {
					*r = reg{}
				}
			}
			pr.send(op.Peer(), pd)
		case comm.OpRecv, comm.OpMerge, comm.OpDrop:
			if !pr.begun && !e.begin(pr, "receives from", op.Peer()) {
				return
			}
			src := op.Peer()
			if pr.begun = true; e.queues[src*e.p+pr.rank].head == 0 {
				pr.block(src)
				return
			}
			pd := pr.receive(src)
			switch r := &regs[op.Reg()]; op.Kind {
			case comm.OpRecv:
				*r = reg{bytes: pd.bytes, parts: pd.nparts}
			case comm.OpMerge:
				pr.AdvanceCombine(pd.bytes)
				r.bytes += pd.bytes
				r.parts += pd.nparts
			}
		case comm.OpBarrier:
			if !e.beginOp() {
				return
			}
			pr.pc++
			pr.arrive()
			return
		case comm.OpCombine:
			pr.AdvanceCombine(regs[op.Reg()].bytes)
		case comm.OpSwap:
			regs[0], regs[op.Reg()] = regs[op.Reg()], regs[0]
		case comm.OpGrow:
			// Sizes the bundle's array where bundles exist; nothing to price.
		case comm.OpIter:
			pr.BeginIter(op.Arg())
		case comm.OpPhase:
			pr.phase = prog.Phase(op.Arg())
		default:
			e.err = fmt.Errorf("sim: rank %d: unknown operation %d", pr.rank, op.Kind)
			return
		}
		pr.begun = false
		pr.pc++
	}
	pr.finish()
}

// begin opens a Send or Recv of pr the way the Proc method does: the peer
// is checked, the operation counted. It reports whether the run goes on.
func (e *engine) begin(pr *Proc, does string, peer int) bool {
	if peer < 0 || peer >= e.p {
		e.err = fmt.Errorf("sim: rank %d %s invalid rank %d", pr.rank, does, peer)
		return false
	}
	return e.beginOp()
}
