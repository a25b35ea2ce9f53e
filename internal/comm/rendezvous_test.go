package comm

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitAll runs Wait for the given ranks concurrently and returns each
// rank's error, indexed like ranks.
func waitAll(r *Rendezvous, ranks []int, timeout time.Duration, last func() error) []error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, rank := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.Wait(rank, timeout, last)
		}()
	}
	wg.Wait()
	return errs
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
				err := r.Wait(rank, time.Minute, func() error {
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

func TestRendezvousStallNamesAbsentees(t *testing.T) {
	r := NewRendezvous(4, 9)
	r.Arm()
	errs := waitAll(r, []int{4, 6, 8}, 50*time.Millisecond, nil)
	for i, err := range errs {
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Fatalf("waiter %d: %v, want a StallError", i, err)
		}
		if !reflect.DeepEqual(stall.Absent, []int{5, 7}) {
			t.Errorf("waiter %d: absentees %v, want [5 7]", i, stall.Absent)
		}
	}
}

// TestRendezvousAbortAndRearm: Abort unwinds parked waiters with its
// cause and fails later arrivals too; Arm clears both the cause and the
// half-entered barrier; an Abort quoting the old arming is ignored.
func TestRendezvousAbortAndRearm(t *testing.T) {
	r := NewRendezvous(0, 3)
	old := r.Arm()
	cause := errors.New("rank 2 died")
	done := make(chan []error)
	go func() { done <- waitAll(r, []int{0, 1}, 0, nil) }()
	for { // wait until both are parked, then abort
		r.mu.Lock()
		parked := r.count == 2
		r.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.Abort(old, cause)
	for i, err := range <-done {
		if err != cause {
			t.Errorf("waiter %d unwound with %v, want the abort cause", i, err)
		}
	}
	if err := r.Wait(2, 0, nil); err != cause {
		t.Errorf("arrival after abort: %v, want the abort cause", err)
	}

	r.Arm()
	r.Abort(old, cause) // stale: must not touch the new arming
	for i, err := range waitAll(r, []int{0, 1, 2}, time.Minute, nil) {
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
	first := make(chan error, 1)
	go func() { first <- r.Wait(0, 0, nil) }()
	for {
		r.mu.Lock()
		parked := r.count == 1
		r.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Wait(1, 0, func() error { return hookErr }); err != hookErr {
		t.Fatalf("last arriver got %v, want the hook's error", err)
	}
	select {
	case err := <-first:
		t.Fatalf("waiter released (%v) although the hook failed", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.Abort(arming, cause)
	if err := <-first; err != cause {
		t.Fatalf("waiter unwound with %v, want the abort cause", err)
	}
}
