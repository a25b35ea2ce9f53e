package engine

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

// Proc is one local rank's handle on the machine. It implements
// comm.Comm, comm.SharedSender, comm.ArraySource, comm.IterMarker and
// comm.PhaseMarker; methods must only be called from the rank's own
// goroutine, during a Machine.Run.
type Proc struct {
	rank int
	m    *Machine
	in   *inbox

	// runs hands the rank's goroutine each run (Machine.serve).
	runs chan *Run
	// arrays is the rank's run-scoped part storage (PartArray).
	arrays comm.Store[comm.Part]

	// Per-run fields, reset by begin under the machine lock before the
	// run is handed to the rank's goroutine, and read by Run after the
	// goroutine reported the run finished. root and unwind are how the
	// rank failed, if it did.
	run          *Run
	iter         int
	phase        string
	stats        Totals
	root, unwind error
}

var _ comm.Comm = (*Proc)(nil)
var _ comm.SharedSender = (*Proc)(nil)
var _ comm.ArraySource = (*Proc)(nil)
var _ comm.IterMarker = (*Proc)(nil)
var _ comm.PhaseMarker = (*Proc)(nil)

// begin resets the per-run half of the rank: a wiped inbox, fresh
// counters and markers, and its part arrays started on the run's epoch.
func (p *Proc) begin(r *Run, epoch uint32) {
	p.in.reset(r.tr != nil)
	p.arrays.Begin(epoch, &p.m.recycled, comm.FillRecycled)
	p.run = r
	p.iter, p.phase = -1, ""
	p.stats = Totals{}
	p.root, p.unwind = nil, nil
}

// PartArray implements comm.ArraySource from the rank's run-scoped
// arrays: the arrays of the run before, in order, when its consumer
// marked it (Machine.Recycle).
func (p *Proc) PartArray(n int) []comm.Part { return p.arrays.Get(n) }

// BeginIter implements comm.IterMarker: traced events carry the iteration.
func (p *Proc) BeginIter(i int) { p.iter = i }

// BeginPhase implements comm.PhaseMarker: traced events carry the label.
func (p *Proc) BeginPhase(name string) { p.phase = name }

// Rank implements comm.Comm.
func (p *Proc) Rank() int { return p.rank }

// Size implements comm.Comm.
func (p *Proc) Size() int { return p.m.size }

// stamp completes an event of this rank's on a traced run: it ended now,
// began at t0, and carries the rank's markers.
func (p *Proc) stamp(e obs.Event, t0 time.Time) obs.Event {
	e.Rank, e.Iter, e.Phase = p.rank, p.iter, p.phase
	e.Wall = p.run.wall()
	e.Dur = network.Time(time.Since(t0).Nanoseconds())
	return e
}

// Trace implements obs.Tracer for an event of this rank's that happened
// above the engine (an injected fault, internal/faults): on a traced run
// it is stamped with the rank and its markers on the run's clock, its
// duration kept, and recorded; otherwise it is dropped.
func (p *Proc) Trace(e obs.Event) {
	if r := p.run; r.tr != nil {
		e.Rank, e.Iter, e.Phase, e.Wall = p.rank, p.iter, p.phase, r.wall()
		r.tr.Trace(e)
	}
}

// Send implements comm.Comm with buffered-send semantics: it returns as
// soon as the caller may reuse m's buffers, never waiting for the peer
// to post a receive. A message that stays in memory — a send to the own
// rank on every engine, any send on live, a cluster worker's sends
// between its own ranks — is copied.
func (p *Proc) Send(dst int, m comm.Message) { p.send(dst, m, false) }

// SendShared implements comm.SharedSender: Send for a sender that never
// changes m's part array or bytes, whose in-memory messages the receiver
// then holds as they are — a compiled program's (comm.Program.Run).
func (p *Proc) SendShared(dst int, m comm.Message) { p.send(dst, m, true) }

func (p *Proc) send(dst int, m comm.Message, shared bool) {
	if dst < 0 || dst >= p.m.size {
		panic(fmt.Sprintf("%s: rank %d sends to invalid rank %d", p.m.name, p.rank, dst))
	}
	if m.Tag == TokenTag {
		panic(fmt.Sprintf("%s: rank %d sends message with reserved barrier tag %d", p.m.name, p.rank, m.Tag))
	}
	r := p.run
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}
	bytes := m.Len()
	p.stats.Sends++
	p.stats.SendBytes += int64(bytes)
	if dst == p.rank {
		r.Local(p.rank, dst, m, shared)
	} else if err := p.m.tr.Deliver(r, p.rank, dst, m, shared); err != nil {
		panic(r.sendErr(dst, err))
	}
	if r.tr != nil {
		r.tr.Trace(p.stamp(obs.Event{Kind: obs.KindSend, Peer: dst, Bytes: bytes, Parts: len(m.Parts), Tag: m.Tag}, t0))
	}
}

// Recv implements comm.Comm. With Options.RecvTimeout set, a wait
// exceeding the timeout aborts the run with an error naming this rank
// and src.
func (p *Proc) Recv(src int) comm.Message {
	if src < 0 || src >= p.m.size {
		panic(fmt.Sprintf("%s: rank %d receives from invalid rank %d", p.m.name, p.rank, src))
	}
	r := p.run
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}
	m, arrival, waited, err := p.in.pop(src, r.recvTimeout)
	if err != nil {
		panic(fmt.Errorf("recv from %d: %w", src, err))
	}
	p.stats.Recvs++
	p.stats.RecvBytes += int64(m.Len())
	if r.tr != nil {
		e := p.stamp(obs.Event{Kind: obs.KindWait, Peer: src, Arrival: network.Time(arrival)}, t0)
		if waited {
			r.tr.Trace(e)
			e.Dur = 0 // the blocked span is the wait slice, not the recv
		}
		e.Kind, e.Bytes, e.Parts, e.Tag = obs.KindRecv, m.Len(), len(m.Parts), m.Tag
		r.tr.Trace(e)
	}
	return m
}

// Barrier implements comm.Comm in two levels: the ranks one process owns
// meet in memory (comm.Rendezvous), and on a cluster worker the last of
// them to arrive then takes the worker's leader rank through a
// dissemination barrier with the other workers' leaders (crossBarrier)
// before anyone is released. A single-process machine is the one-worker
// case: no rounds, no tokens.
func (p *Proc) Barrier() {
	r := p.run
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}
	if err := p.m.bar.Wait(p.rank, p.m.cross); err != nil {
		panic(fmt.Errorf("barrier: %w", err))
	}
	if r.tr != nil {
		r.tr.Trace(p.stamp(obs.Event{Kind: obs.KindBarrier, Peer: -1}, t0))
	}
}
