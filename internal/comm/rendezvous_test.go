package comm

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitAll runs Wait for the given ranks concurrently and returns each
// rank's error, indexed like ranks.
func waitAll(r *Rendezvous, ranks []int, last func() error) []error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, rank := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.Wait(rank, last)
		}()
	}
	wg.Wait()
	return errs
}

// parkAll starts Wait for ranks in the background and returns once all
// of them are parked in the barrier; the channel yields their errors.
func parkAll(r *Rendezvous, ranks []int) <-chan []error {
	done := make(chan []error, 1)
	go func() { done <- waitAll(r, ranks, nil) }()
	for {
		r.mu.Lock()
		parked := r.count == len(ranks)
		r.mu.Unlock()
		if parked {
			return done
		}
		runtime.Gosched()
	}
}

// stalled reports whether the barrier's current arming has failed.
func stalled(r *Rendezvous) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dead != nil
}

// TestRendezvousHoldsUntilLastArrival is the safety property over many
// back-to-back barriers: no rank leaves barrier g before all have
// entered it, and the last arriver's hook runs exactly once per barrier
// while everyone else is still parked.
func TestRendezvousHoldsUntilLastArrival(t *testing.T) {
	const lo, n, rounds = 3, 7, 200
	r := NewRendezvous(lo, lo+n)
	r.Arm()
	var entered, hooks atomic.Int64
	var wg sync.WaitGroup
	for rank := lo; rank < lo+n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 1; g <= rounds; g++ {
				entered.Add(1)
				err := r.Wait(rank, func() error {
					if got := entered.Load(); got != int64(g*n) {
						t.Errorf("barrier %d: hook ran with %d arrivals, want %d", g, got, g*n)
					}
					hooks.Add(1)
					return nil
				})
				if err != nil {
					t.Errorf("rank %d barrier %d: %v", rank, g, err)
					return
				}
				if got := entered.Load(); got < int64(g*n) {
					t.Errorf("rank %d left barrier %d after %d arrivals, want >= %d", rank, g, got, g*n)
				}
			}
		}()
	}
	wg.Wait()
	if got := hooks.Load(); got != rounds {
		t.Errorf("last-arriver hook ran %d times over %d barriers", got, rounds)
	}
}

// TestRendezvousStallNamesAbsentees drives the watchdog's hook tick by
// tick: a barrier waiting for arrivals survives DeadlineTicks ticks after
// the first one that saw it, and the next fails every waiter with a
// StallError naming the timeout and the ranks that never arrived.
func TestRendezvousStallNamesAbsentees(t *testing.T) {
	const timeout = 80 * time.Millisecond
	r := NewRendezvous(4, 9)
	arming := r.Arm()
	r.Tick(arming, timeout) // nobody waits: not a stall, not counted
	done := parkAll(r, []int{4, 6, 8})
	for i := 0; i <= DeadlineTicks; i++ {
		if stalled(r) {
			t.Fatalf("barrier stalled after %d ticks, want %d", i, DeadlineTicks+1)
		}
		r.Tick(arming, timeout)
	}
	for i, err := range <-done {
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Fatalf("waiter %d: %v, want a StallError", i, err)
		}
		if !reflect.DeepEqual(stall.Absent, []int{5, 7}) || stall.Timeout != timeout {
			t.Errorf("waiter %d: %v, want absentees [5 7] after %v", i, stall, timeout)
		}
	}
	if err := r.Wait(5, nil); !errors.As(err, new(*StallError)) {
		t.Errorf("arrival at the stalled barrier: %v, want its StallError", err)
	}
}

// TestRendezvousTicksCountPerBarrier: the ticks a completed barrier was
// seen at do not count against the next one, and the last arriver's
// hook, which runs with every rank present, is never a stall.
func TestRendezvousTicksCountPerBarrier(t *testing.T) {
	r := NewRendezvous(0, 3)
	arming := r.Arm()
	done := parkAll(r, []int{0, 1})
	for i := 0; i < DeadlineTicks; i++ {
		r.Tick(arming, time.Second)
	}
	hooked := make(chan struct{})
	release := make(chan struct{})
	last := make(chan error, 1)
	go func() {
		last <- r.Wait(2, func() error {
			close(hooked)
			<-release
			return nil
		})
	}()
	<-hooked
	for i := 0; i < 2*DeadlineTicks; i++ {
		r.Tick(arming, time.Second) // the hook runs: nobody is missing
	}
	close(release)
	if err := <-last; err != nil {
		t.Fatalf("last arriver: %v", err)
	}
	for i, err := range <-done {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}

	done = parkAll(r, []int{2})
	for i := 0; i < DeadlineTicks; i++ {
		r.Tick(arming, time.Second)
	}
	if stalled(r) {
		t.Fatal("the earlier barrier's ticks counted against the next one")
	}
	r.Tick(arming, time.Second)
	if errs := <-done; !errors.As(errs[0], new(*StallError)) {
		t.Fatalf("waiter: %v, want a StallError", errs[0])
	}
}

// TestRendezvousAbortAndRearm: Abort unwinds parked waiters with its
// cause and fails later arrivals too; an abort wins over a later stall;
// Arm clears both the cause and the half-entered barrier; an Abort or a
// Tick quoting the old arming is ignored.
func TestRendezvousAbortAndRearm(t *testing.T) {
	r := NewRendezvous(0, 3)
	old := r.Arm()
	cause := errors.New("rank 2 died")
	done := parkAll(r, []int{0, 1})
	r.Abort(old, cause)
	for i := 0; i <= DeadlineTicks; i++ {
		r.Tick(old, time.Second) // too late: the abort won
	}
	for i, err := range <-done {
		if err != cause {
			t.Errorf("waiter %d unwound with %v, want the abort cause", i, err)
		}
	}
	if err := r.Wait(2, nil); err != cause {
		t.Errorf("arrival after abort: %v, want the abort cause", err)
	}

	r.Arm()
	r.Abort(old, cause) // stale: must not touch the new arming
	done = parkAll(r, []int{0, 1})
	for i := 0; i <= 2*DeadlineTicks; i++ {
		r.Tick(old, time.Second) // stale too
	}
	if stalled(r) {
		t.Fatal("a stale arming's ticks stalled the re-armed barrier")
	}
	if err := r.Wait(2, nil); err != nil {
		t.Errorf("re-armed barrier, last arriver: %v", err)
	}
	for i, err := range <-done {
		if err != nil {
			t.Errorf("re-armed barrier, rank %d: %v", i, err)
		}
	}
}

// TestRendezvousHookErrorKeepsEveryoneParked: a failing hook reports to
// the last arriver only and releases nobody; the abort that follows
// unwinds the rest.
func TestRendezvousHookErrorKeepsEveryoneParked(t *testing.T) {
	r := NewRendezvous(0, 2)
	arming := r.Arm()
	hookErr, cause := errors.New("token lost"), errors.New("aborted")
	done := parkAll(r, []int{0})
	if err := r.Wait(1, func() error { return hookErr }); err != hookErr {
		t.Fatalf("last arriver got %v, want the hook's error", err)
	}
	select {
	case errs := <-done:
		t.Fatalf("waiter released (%v) although the hook failed", errs[0])
	case <-time.After(20 * time.Millisecond):
	}
	r.Abort(arming, cause)
	if errs := <-done; errs[0] != cause {
		t.Fatalf("waiter unwound with %v, want the abort cause", errs[0])
	}
}
