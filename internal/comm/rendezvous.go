package comm

import (
	"fmt"
	"sync"
	"time"
)

// DeadlineWaker bounds waits on a sync.Cond: Arm schedules one Broadcast
// (under the cond's lock) after a delay, so a waiter that re-checks its
// clock on every wake-up notices its deadline. The engines' blocking
// paths share it so that a wait costs a timer re-arm, not a new timer and
// closure: the timer is created by the first Arm and reused afterwards.
// The zero value is ready; callers serialize Arm and Stop (they hold the
// cond's lock). A Broadcast from a timer that lost the race with Stop is
// harmless — waiters re-check their condition.
type DeadlineWaker struct{ timer *time.Timer }

// Arm (re)schedules the wake-up of c's waiters after d. Every call must
// pass the same cond.
func (w *DeadlineWaker) Arm(c *sync.Cond, d time.Duration) {
	if w.timer != nil {
		w.timer.Reset(d)
		return
	}
	w.timer = time.AfterFunc(d, func() {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	})
}

// Stop cancels the pending wake-up, if any.
func (w *DeadlineWaker) Stop() {
	if w.timer != nil {
		w.timer.Stop()
	}
}

// Rendezvous is the in-memory cyclic barrier the real-byte engines park
// the ranks of one address space on: the whole machine in internal/live,
// the rank range one process owns in internal/tcp (whose last arriver
// then synchronises with the other processes before anyone is released).
// It is reusable across barriers within a run and re-armed between runs.
//
// One timer bounds each barrier, not one per waiter: the first arriver
// arms it, the last stops it, and a rank that arrives to find everyone
// present never touches it — so the common case of a barrier that
// completes costs two timer operations however many ranks wait.
type Rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	lo      int    // rank of arrived[0]
	arrived []bool // by rank-lo; cleared at every release
	count   int
	gen     uint64 // bumped at every release
	arming  uint64 // bumped by every Arm; Abort must quote it
	dead    error  // abort cause of the current arming

	deadline time.Time // of the current barrier, set by its first arriver
	waker    DeadlineWaker
}

// NewRendezvous returns a barrier for the ranks [lo,hi).
func NewRendezvous(lo, hi int) *Rendezvous {
	r := &Rendezvous{lo: lo, arrived: make([]bool, hi-lo)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// StallError reports a barrier that did not complete within its timeout:
// Absent lists the ranks that never arrived.
type StallError struct {
	Timeout time.Duration
	Absent  []int
}

func (e *StallError) Error() string {
	return fmt.Sprintf("blocked %v (deadline exceeded) waiting for ranks %v", e.Timeout, e.Absent)
}

// Arm resets the barrier for a new run — an aborted run leaves arrivals
// behind that never released — and returns the arming Abort must quote,
// so an abort that outlives its run cannot poison the next one.
func (r *Rendezvous) Arm() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.waker.Stop()
	r.release()
	r.arming++
	r.dead = nil
	return r.arming
}

// Abort fails every current and future Wait of the given arming with
// cause. The first cause wins; a stale arming is ignored.
func (r *Rendezvous) Abort(arming uint64, cause error) {
	r.mu.Lock()
	if arming == r.arming && r.dead == nil {
		r.dead = cause
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// release opens the current barrier (mu held).
func (r *Rendezvous) release() {
	r.count = 0
	clear(r.arrived)
	r.gen++
	r.cond.Broadcast()
}

// Wait blocks rank until every rank of the barrier has arrived. The last
// arriver runs last (when non-nil) with everyone else still parked, and
// releases them only if it returns nil; its error goes to the last
// arriver alone, who must abort the run to unwind the others. last must
// not panic. A positive timeout bounds the wait for the arrivals — from
// the first arrival, so no rank is parked longer — with a *StallError;
// the time last takes is last's own to bound. After Abort, Wait returns
// the abort cause.
func (r *Rendezvous) Wait(rank int, timeout time.Duration, last func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead != nil {
		return r.dead
	}
	r.arrived[rank-r.lo] = true
	r.count++
	if r.count == len(r.arrived) {
		r.waker.Stop()
		if last != nil {
			r.mu.Unlock()
			err := last()
			r.mu.Lock()
			if err != nil {
				return err
			}
		}
		r.release()
		return nil
	}
	if timeout > 0 && r.count == 1 {
		r.deadline = time.Now().Add(timeout)
		r.waker.Arm(r.cond, timeout)
	}
	for gen := r.gen; gen == r.gen; {
		if r.dead != nil {
			return r.dead
		}
		if timeout > 0 && r.count < len(r.arrived) && !time.Now().Before(r.deadline) {
			stall := &StallError{Timeout: timeout}
			for i, here := range r.arrived {
				if !here {
					stall.Absent = append(stall.Absent, r.lo+i)
				}
			}
			return stall
		}
		r.cond.Wait()
	}
	return nil
}
