package comm

import (
	"fmt"
	"sync"
	"time"
)

// DeadlineTicks is how the real-byte engines bound a blocking wait
// without a clock on the wait path: a watchdog looks at every wait once
// per tick, ticks at least timeout/DeadlineTicks apart, and a wait still
// blocked — the same wait — DeadlineTicks ticks after the one that first
// saw it expires. It therefore fails after at least the timeout and
// before (1 + 1/DeadlineTicks)·timeout, give or take the scheduler.
const DeadlineTicks = 4

// Rendezvous is the in-memory cyclic barrier the real-byte engines park
// the ranks of one address space on: the whole machine in internal/live,
// the rank range one process owns in internal/tcp (whose last arriver
// then synchronises with the other processes before anyone is released).
// It is reusable across barriers within a run and re-armed between runs.
//
// A barrier arms no timer: the engine's watchdog calls Tick, and a
// barrier that stays incomplete for DeadlineTicks ticks after the first
// one that saw it waiting fails its waiters with a *StallError. A
// barrier that completes costs no clock read and no timer operation.
type Rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	lo      int    // rank of arrived[0]
	arrived []bool // by rank-lo; cleared at every release
	count   int
	gen     uint64 // bumped at every release
	arming  uint64 // bumped by every Arm; Abort and Tick must quote it
	dead    error  // abort or stall cause of the current arming
	ticks   int    // watchdog ticks that saw the current barrier waiting
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
// behind that never released — and returns the arming Abort and Tick
// must quote, so a call that outlives its run cannot reach the next one.
func (r *Rendezvous) Arm() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.release()
	r.arming++
	r.dead = nil
	return r.arming
}

// Abort fails every current and future Wait of the given arming with
// cause. The first cause — an abort or a stall — wins; a stale arming is
// ignored.
func (r *Rendezvous) Abort(arming uint64, cause error) {
	r.mu.Lock()
	if arming == r.arming && r.dead == nil {
		r.dead = cause
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// Tick is the stall check, called by the engine's watchdog once per tick
// of a run whose waits are bounded by timeout. A barrier still waiting
// for arrivals DeadlineTicks ticks after the first tick that saw it
// waiting fails the arming like Abort, with a *StallError naming the
// ranks that never arrived. The last arriver's hook is not a wait for
// arrivals and is never counted. A stale arming is ignored.
func (r *Rendezvous) Tick(arming uint64, timeout time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if arming != r.arming || r.dead != nil || r.count == 0 || r.count == len(r.arrived) {
		return
	}
	if r.ticks++; r.ticks <= DeadlineTicks {
		return
	}
	stall := &StallError{Timeout: timeout}
	for i, here := range r.arrived {
		if !here {
			stall.Absent = append(stall.Absent, r.lo+i)
		}
	}
	r.dead = stall
	r.cond.Broadcast()
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
// not panic, and the time it takes is its own to bound. After Abort, or
// once Tick has declared the barrier stalled, Wait returns that cause.
func (r *Rendezvous) Wait(rank int, last func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead != nil {
		return r.dead
	}
	r.arrived[rank-r.lo] = true
	r.count++
	if r.count == len(r.arrived) {
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
	if r.count == 1 {
		r.ticks = 0 // a new barrier: a new wait for the watchdog
	}
	for gen := r.gen; gen == r.gen; {
		if r.dead != nil {
			return r.dead
		}
		r.cond.Wait()
	}
	return nil
}
