package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// inbox is one rank's receive side: per-source message FIFOs plus
// per-source barrier-token counters (only a cluster worker's leader rank
// ever receives tokens), under one lock. Each FIFO is a comm.Queue ring
// buffer, so delivered payloads do not stay reachable through the
// queue's backing array. Between runs the inbox is reset; push and fail
// revalidate (under the lock) that the run they quote is still the one
// in flight, so nothing a finished run left in transit — a frame a
// reader was still decoding, a late abort — can reach the next run.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cur    *atomic.Pointer[Run] // the machine's run in flight
	boxes  []comm.Queue
	tokens []int // by source; allocated at the first token
	dead   error
	// The blocked wait, if any — one at a time: the owning rank's
	// receive, or a leader's token wait run by its machine's last barrier
	// arriver while the leader is parked. ticks counts the watchdog ticks
	// that saw it (tick); expired is set once it has outlasted the
	// deadline. A receive whose message is already queued touches none
	// of them.
	waiting, expired bool
	ticks            int
	// arrivals mirrors boxes with FIFOs of arrival wall stamps (ns since
	// run start). Allocated only when the run is traced.
	arrivals []tsQueue
}

// tsQueue is a FIFO of int64 timestamps (slice plus head index; traced
// runs only, so the modest garbage of the grown slice is acceptable).
type tsQueue struct {
	buf  []int64
	head int
}

func (q *tsQueue) push(t int64) { q.buf = append(q.buf, t) }

func (q *tsQueue) pop() int64 {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return t
}

// reset wipes the previous run's leftovers: queued messages (slots
// zeroed, so undelivered payloads become collectable), barrier tokens,
// the poison error and the arrival stamps.
func (ib *inbox) reset(traced bool) {
	ib.mu.Lock()
	for i := range ib.boxes {
		ib.boxes[i].Reset()
	}
	clear(ib.tokens)
	ib.dead = nil
	ib.arrivals = nil
	if traced {
		ib.arrivals = make([]tsQueue, len(ib.boxes))
	}
	ib.mu.Unlock()
}

// push enqueues what arrived from src for run r: a barrier token when m
// is tagged TokenTag, a message otherwise (ts is its arrival stamp,
// recorded on traced runs).
func (ib *inbox) push(r *Run, src int, m comm.Message, ts int64) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.cur.Load() != r {
		return
	}
	if m.Tag == TokenTag {
		if ib.tokens == nil {
			ib.tokens = make([]int, len(ib.boxes))
		}
		ib.tokens[src]++
	} else {
		ib.boxes[src].Push(m)
		if ib.arrivals != nil {
			ib.arrivals[src].push(ts)
		}
	}
	ib.cond.Broadcast()
}

// fail poisons the inbox for run r with err; the first poison wins.
func (ib *inbox) fail(r *Run, err error) {
	ib.mu.Lock()
	if ib.cur.Load() == r && ib.dead == nil {
		ib.dead = err
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// pending reports whether src has a token (token) or a message queued.
func (ib *inbox) pending(src int, token bool) bool {
	if token {
		return ib.tokens != nil && ib.tokens[src] > 0
	}
	return ib.boxes[src].Len() > 0
}

// waitLocked blocks (mu held) until src has something pending, the inbox
// is poisoned, or the watchdog expires the wait (timeout names the
// deadline in the error).
func (ib *inbox) waitLocked(timeout time.Duration, src int, token bool) error {
	if ib.pending(src, token) {
		return nil
	}
	ib.waiting, ib.expired, ib.ticks = true, false, 0
	var err error
	for err == nil && !ib.pending(src, token) {
		switch {
		case ib.dead != nil:
			err = ib.dead
		case ib.expired:
			err = fmt.Errorf("blocked %v (receive deadline exceeded)", timeout)
		default:
			ib.cond.Wait()
		}
	}
	ib.waiting = false
	return err
}

// tick is the watchdog's look at the inbox: a wait that was blocked at
// DeadlineTicks earlier ticks and still is expires.
func (ib *inbox) tick() {
	ib.mu.Lock()
	if ib.waiting && !ib.expired {
		if ib.ticks++; ib.ticks > comm.DeadlineTicks {
			ib.expired = true
			ib.cond.Broadcast()
		}
	}
	ib.mu.Unlock()
}

// pop dequeues the next message from src, returning its arrival stamp
// (0 when the run is untraced) and whether the caller had to block.
func (ib *inbox) pop(src int, timeout time.Duration) (comm.Message, int64, bool, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	waited := ib.boxes[src].Len() == 0
	if err := ib.waitLocked(timeout, src, false); err != nil {
		return comm.Message{}, 0, waited, err
	}
	var ts int64
	if ib.arrivals != nil {
		ts = ib.arrivals[src].pop()
	}
	return ib.boxes[src].Pop(), ts, waited, nil
}

func (ib *inbox) popToken(src int, timeout time.Duration) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if err := ib.waitLocked(timeout, src, true); err != nil {
		return err
	}
	ib.tokens[src]--
	return nil
}
