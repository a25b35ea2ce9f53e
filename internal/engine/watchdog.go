package engine

import (
	"fmt"
	"time"

	"repro/internal/comm"
)

// watch hands r to the watchdog when r has a deadline or a context, and
// reports whether it did. A run like the one before it costs two
// uncontended locks: only a context, a RunTimeout or a new tick period
// wakes the watchdog.
func (m *Machine) watch(r *Run) bool {
	var ctxDone <-chan struct{}
	if r.ctx != nil {
		ctxDone = r.ctx.Done()
	}
	if ctxDone == nil && r.runTimeout <= 0 && r.recvTimeout <= 0 {
		return false
	}
	m.wmu.Lock()
	m.started++
	r.seq = m.started
	m.watched = r
	wake := ctxDone != nil || r.runTimeout > 0 || r.recvTimeout > 0 && tickPeriod(r.recvTimeout) != m.period
	m.wmu.Unlock()
	if wake {
		select {
		case m.wake <- struct{}{}:
		default: // a wake is pending; it will see r
		}
	}
	return true
}

// unwatch retires the run in flight from the watchdog. An expiry it is
// in the middle of completes first; none starts afterwards.
func (m *Machine) unwatch() {
	m.wmu.Lock()
	m.watched = nil
	m.wmu.Unlock()
}

// tickPeriod is the tick period that bounds waits at recvTimeout: ticks
// at least this far apart make DeadlineTicks of them last recvTimeout.
func tickPeriod(recvTimeout time.Duration) time.Duration {
	return (recvTimeout + comm.DeadlineTicks - 1) / comm.DeadlineTicks
}

// watchdog is the machine's one deadline goroutine. It arms its timers
// for the watched run when woken, and acts on them under wmu, so a run
// that unwatch retired is never touched: a deadline or cancellation of a
// run that has finished cannot reach Transport.Abort.
type watchdog struct {
	m              *Machine
	tick, deadline *time.Timer
	// tickArmed and deadlineArmed are set while a fire may be pending in
	// the timer's channel, which must then be drained before a Reset (the
	// module's go version keeps the pre-1.23 timer semantics).
	tickArmed, deadlineArmed bool
	// armed is the run deadline and ctxDone were last armed for.
	armed   uint64
	ctxDone <-chan struct{}
	seen    uint64 // Machine.started at the previous tick
}

func (m *Machine) watchdog() {
	defer m.goroutines.Done()
	w := &watchdog{m: m, tick: time.NewTimer(time.Hour), deadline: time.NewTimer(time.Hour)}
	w.tick.Stop()
	w.deadline.Stop()
	for {
		select {
		case _, ok := <-m.wake:
			if !ok {
				w.tick.Stop()
				w.deadline.Stop()
				return
			}
			w.arm()
		case <-w.tick.C:
			w.tickArmed = false
			w.ticked()
		case <-w.deadline.C:
			w.deadlineArmed = false
			w.expire(func(r *Run) error { return fmt.Errorf("run exceeded %v deadline", r.runTimeout) })
		case <-w.ctxDone:
			w.ctxDone = nil
			w.expire(func(r *Run) error { return fmt.Errorf("run canceled: %w", r.ctx.Err()) })
		}
	}
}

// expire aborts the run the deadline and the context watch are armed
// for with the cause it names — if that run is still the one in flight
// and some rank still executes it.
func (w *watchdog) expire(cause func(*Run) error) {
	m := w.m
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if r := m.watched; r != nil && r.seq == w.armed && m.running.Load() > 0 {
		r.abort(&abortError{cause: cause(r), external: true})
	}
}

// stop stops t, draining a fire Stop came too late for.
func stop(t *time.Timer, armed *bool) {
	if *armed && !t.Stop() {
		<-t.C
	}
	*armed = false
}

// rearm resets t to fire after d.
func rearm(t *time.Timer, armed *bool, d time.Duration) {
	stop(t, armed)
	t.Reset(d)
	*armed = true
}

// arm points the context watch and the run deadline at the watched run
// and starts the ticks at its period. The timers are the watchdog's
// alone, so they are set after wmu is released; the fields of a watched
// run do not change.
func (w *watchdog) arm() {
	m := w.m
	m.wmu.Lock()
	r := m.watched
	var period time.Duration // a new tick period, if any
	if r != nil && r.recvTimeout > 0 && tickPeriod(r.recvTimeout) != m.period {
		m.period = tickPeriod(r.recvTimeout)
		period = m.period
	}
	m.wmu.Unlock()
	if r != nil && r.seq != w.armed {
		w.armed, w.ctxDone = r.seq, nil
		if r.ctx != nil {
			w.ctxDone = r.ctx.Done()
		}
		if r.runTimeout > 0 {
			rearm(w.deadline, &w.deadlineArmed, time.Until(r.start.Add(r.runTimeout)))
		} else {
			stop(w.deadline, &w.deadlineArmed)
		}
	}
	if period > 0 {
		rearm(w.tick, &w.tickArmed, period)
	}
}

// ticked is one tick: every blocked receive and barrier of the watched
// run is seen once more, and expires if it was already seen DeadlineTicks
// ticks ago. The ticks then park if no run with receive deadlines is in
// flight and none started since the previous tick.
func (w *watchdog) ticked() {
	m := w.m
	m.wmu.Lock()
	r := m.watched
	if r != nil && r.recvTimeout > 0 {
		if p := tickPeriod(r.recvTimeout); p != m.period {
			m.period = p // a wake is on its way; these ticks start now
		} else if m.running.Load() > 0 {
			for _, pr := range m.procs[m.lo:m.hi] {
				pr.in.tick()
			}
			m.bar.Tick(r.arming, r.recvTimeout)
		}
	} else if m.started == w.seen {
		m.period = 0
	}
	w.seen = m.started
	period := m.period
	m.wmu.Unlock()
	if period > 0 {
		rearm(w.tick, &w.tickArmed, period)
	}
}
