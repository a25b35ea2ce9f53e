package tcp

import (
	"fmt"
	"net"

	"repro/internal/comm"
)

// The k-ported send path (Options.Ports > 0): Send enqueues frames onto
// per-destination link drivers — one writer goroutine per outbound
// connection, spawned lazily by the rank goroutine at the first send to
// that destination — and a semaphore of Ports transmission tokens
// bounds how many links one rank drives concurrently. Ports=1 behaves
// like a one-port node (transmissions to different destinations
// serialize, but the algorithm overlaps with them); Ports=k lets k
// links transmit at once, which is what the paper's multi-channel
// routers do and what the registry's k-ported schedules assume.
//
// Ownership: a frame handed to a driver is encoded from the caller's
// message on the driver goroutine, and the message's payloads stay the
// caller's — exactly the inline path's contract. The encode scratch is
// per-driver and pooled for the driver's lifetime. Counters stay on the rank goroutine
// (Send increments before enqueueing), so ProcStats remain exact under
// concurrent drivers.

const (
	// driverQueueCap bounds each driver's frame queue. A full queue
	// blocks the sending rank — the same backpressure as the inline
	// path blocking on a full socket buffer — and the pumps' unbounded
	// inbox draining keeps the buffered-Send contract deadlock-free.
	driverQueueCap = 256
	// driverBurst is how many additional queued frames a driver may
	// write while it holds a port token, amortizing token traffic when
	// a queue runs deep without starving the other links forever.
	driverBurst = 32
)

// linkDriver is one outbound connection's writer: a bounded frame queue
// and a done latch the owning rank joins on at run end.
type linkDriver struct {
	q    chan comm.Message
	done chan struct{}
}

// driverFault records the first driver write failure of a run so the
// owning rank can report it as its own root cause (the driver goroutine
// cannot panic on the rank's behalf).
type driverFault struct {
	err error
}

// enqueue hands m to dst's link driver, spawning it at the first send.
// It blocks when the queue is full and panics with the recorded driver
// failure when the link already died — matching the inline path, where
// the failing Write itself panics.
func (p *Proc) enqueue(dst int, m comm.Message) {
	if df := p.derr.Load(); df != nil {
		p.sendFail(dst, df.err)
	}
	d := p.drivers[dst]
	if d == nil {
		conn, err := p.link(dst)
		if err != nil {
			p.sendFail(dst, err)
		}
		d = &linkDriver{
			q:    make(chan comm.Message, driverQueueCap),
			done: make(chan struct{}),
		}
		p.drivers[dst] = d
		go p.drive(dst, conn, d, p.rs)
	}
	d.q <- m
}

// drive writes dst's queued frames, taking one port token per
// transmission burst. After a write failure it records the fault,
// aborts the run, and keeps draining so the owning rank never blocks
// on a dead link's full queue.
func (p *Proc) drive(dst int, conn net.Conn, d *linkDriver, rs *runState) {
	defer close(d.done)
	sc := getScratch()
	defer putScratch(sc)
	failed := false
	for {
		m, ok := <-d.q
		if !ok {
			return
		}
		if failed {
			continue
		}
		p.portSem <- struct{}{}
		err := writeFrameTo(conn, rs.epoch, m, sc)
		for n := 0; err == nil && n < driverBurst; n++ {
			var more bool
			select {
			case m, more = <-d.q:
				if !more {
					<-p.portSem
					return
				}
				err = writeFrameTo(conn, rs.epoch, m, sc)
			default:
				n = driverBurst
			}
		}
		<-p.portSem
		if err != nil {
			failed = true
			p.driveFail(dst, err, rs)
		}
	}
}

// driveFail is the driver-side half of sendFail: record the fault for
// the owning rank, poison its inbox (a rank blocked in Recv must learn
// its own link died, not just that "the machine aborted"), and tear the
// run down so every peer unwinds.
func (p *Proc) driveFail(dst int, err error, rs *runState) {
	ferr := fmt.Errorf("link driver send to %d: %w", dst, err)
	if rs.aborted.Load() {
		// The mesh was already down; this write error is secondary.
		ferr = &abortError{cause: ferr}
	}
	p.derr.CompareAndSwap(nil, &driverFault{err: ferr})
	p.in.fail(p.st, rs, ferr)
	p.st.abort(rs, &abortError{cause: fmt.Errorf("machine aborted: rank %d link driver to %d failed", p.rank, dst)})
}

// stopDrivers closes every driver queue and joins the goroutines, so
// all queued frames are on the wire (or attributed to a fault) before
// the rank retires. Idempotent; rank goroutine only.
func (p *Proc) stopDrivers() {
	if p.ports == 0 {
		return
	}
	for i, d := range p.drivers {
		if d == nil {
			continue
		}
		p.drivers[i] = nil
		close(d.q)
		<-d.done
	}
}
