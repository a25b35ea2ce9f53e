// Package par provides the bounded worker pool shared by the experiment
// harness (internal/bench), the autotuner's probe stage (internal/plan),
// and the sweep CLIs. Independent work items — figure cells, candidate
// probes, sweep rows — fan out across at most Limit() goroutines; results
// are indexed by item so callers assemble output in deterministic order
// regardless of completion order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// limit is the global worker cap; 0 means "use GOMAXPROCS at call time".
var limit atomic.Int64

// Limit returns the current worker cap (at least 1).
func Limit() int {
	if n := int(limit.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetLimit sets the worker cap for subsequent ForEach calls and returns
// the previous value. n <= 0 restores the default (GOMAXPROCS). The cap
// is process-global: the CLIs set it once from their -parallel flag.
func SetLimit(n int) int {
	prev := int(limit.Swap(int64(n)))
	if prev <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return prev
}

// Workers returns the number of goroutines a pool over n items should
// use: min(Limit(), n), at least 1.
func Workers(n int) int {
	w := Limit()
	if n < w {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs job(i) for every i in [0, n), with at most Limit()
// invocations in flight at once. It always completes all n items (a
// failing item does not cancel the rest — items are independent and
// callers want the full result grid), then returns the error of the
// lowest failed index so the reported failure is deterministic.
//
// With a limit of 1 (or n <= 1) the jobs run inline on the caller's
// goroutine in index order — serial mode is the byte-identical baseline
// the parallel harness is checked against.
func ForEach(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(n)
	if w == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := job(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FreeList keeps at most max(GOMAXPROCS, 2) idle values — the simulator's
// engines, the networks' link tables — for the next run, until the process
// exits.
// Unlike a sync.Pool, whose per-P slots lost them whenever a GC moved a
// figure worker to another P, it makes what a run allocates a function of
// the run's inputs, not of scheduling.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get takes the value put last; ok is false when the list is empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		v, ok, l.items = l.items[n-1], true, l.items[:n-1]
	}
	l.mu.Unlock()
	return v, ok
}

// Put hands v to the next Get, or to the collector when the list is full.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	// Two at least: a part script holds two filings at once.
	if len(l.items) < max(runtime.GOMAXPROCS(0), 2) {
		l.items = append(l.items, v)
	}
	l.mu.Unlock()
}
