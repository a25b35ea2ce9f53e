package tcp

import (
	"context"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// workerMesh stands up the partial machines of one p-rank mesh split
// into ranges — a whole cluster's engines inside the test process, wired
// as the coordinator would wire them: listeners first, then every
// machine's share of the dial plan against the merged address table.
// links nil is the full mesh; either way each machine plans only the
// pairs crossing its range, as its own ranks exchange through memory.
func workerMesh(t *testing.T, p int, ranges [][2]int, links [][2]int) []*Machine {
	t.Helper()
	leaders := make([]int, len(ranges))
	for w, r := range ranges {
		leaders[w] = r[0]
	}
	ms := make([]*Machine, len(ranges))
	addrs := make(map[int]string, p)
	for w, r := range ranges {
		m, err := NewWorkerMachine(p, r[0], r[1], leaders, Options{Links: links})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		ms[w] = m
		for rank, addr := range m.LocalAddrs() {
			addrs[rank] = addr
		}
	}
	connectWorkers(t, ms, addrs)
	return ms
}

func connectWorkers(t *testing.T, ms []*Machine, addrs map[int]string) {
	t.Helper()
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	for w, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = m.ConnectMesh(context.Background(), addrs)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d connect: %v", w, err)
		}
	}
}

// runWorkers is one cluster-wide run: every machine runs fn on its ranks
// under a common epoch, each starting as soon as it is told to, as the
// coordinator's run message starts them.
func runWorkers(ms []*Machine, epoch uint32, opts Options, fn func(*Proc)) ([]Result, []error) {
	opts.Epoch = epoch
	res, errs := make([]Result, len(ms)), make([]error, len(ms))
	var wg sync.WaitGroup
	for w, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[w], errs[w] = m.Run(opts, fn)
		}()
	}
	wg.Wait()
	return res, errs
}

// barrierRounds is the safety workload: in every round each rank checks
// in, meets the others, and must then see everyone's check-in — with one
// straggler that arrives late to every barrier. The second barrier keeps
// a fast rank's next check-in out of a slow rank's reading.
func barrierRounds(t *testing.T, p, straggler, rounds int, arrived *atomic.Int64) func(*Proc) {
	return func(pr *Proc) {
		for r := 1; r <= rounds; r++ {
			if pr.Rank() == straggler {
				time.Sleep(5 * time.Millisecond)
			}
			arrived.Add(1)
			pr.Barrier()
			if got := arrived.Load(); got != int64(r*p) {
				t.Errorf("round %d: rank %d left the barrier after %d arrivals, want %d", r, pr.Rank(), got, r*p)
			}
			pr.Barrier()
		}
	}
}

// TestWorkerBarrierTokens runs the barrierRounds safety workload across three
// worker machines with uneven, non-power-of-two splits. The meshes are
// given the empty plan, so they hold just the leader links every worker
// machine plans itself, and zero lazy dials proves the barrier touches
// no other link; only the leaders exchange tokens,
// ⌈log2 3⌉ = 2 each way per barrier; and back-to-back runs (fresh epochs)
// keep working on the same machines.
func TestWorkerBarrierTokens(t *testing.T) {
	for _, tc := range []struct {
		p      int
		ranges [][2]int
	}{
		{7, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{60, [][2]int{{0, 7}, {7, 40}, {40, 60}}},
	} {
		const rounds = 3
		ms := workerMesh(t, tc.p, tc.ranges, [][2]int{})
		for w, m := range ms {
			// With W=3 every leader is paired with both others.
			if n := m.PlannedPairs(); n != 2 {
				t.Fatalf("p=%d worker %d planned %d pairs, want its 2 leader pairs", tc.p, w, n)
			}
		}
		for run, straggler := range []int{tc.p - 1, 0, tc.ranges[1][0] + 1} {
			var arrived atomic.Int64
			res, errs := runWorkers(ms, uint32(run+1), Options{RecvTimeout: 30 * time.Second},
				barrierRounds(t, tc.p, straggler, rounds, &arrived))
			for w, err := range errs {
				if err != nil {
					t.Fatalf("p=%d run %d worker %d: %v", tc.p, run, w, err)
				}
			}
			// A worker's tokens are its leader's: 2 barriers a round, 2
			// dissemination rounds each.
			const want = 2 * 2 * rounds
			for w, r := range res {
				if r.BarrierSends != want || r.BarrierRecvs != want {
					t.Errorf("p=%d run %d worker %d: %d/%d barrier tokens, want %d/%d",
						tc.p, run, w, r.BarrierSends, r.BarrierRecvs, want, want)
				}
			}
		}
		for w, m := range ms {
			if n := m.LazyDials(); n != 0 {
				t.Errorf("p=%d worker %d: %d lazy dials — the barrier left the leader links", tc.p, w, n)
			}
		}
	}
}

func TestLeaderLinks(t *testing.T) {
	if got := engine.LeaderLinks([]int{0}); len(got) != 0 {
		t.Errorf("one process needs no leader links, got %v", got)
	}
	got := engine.LeaderLinks([]int{0, 7, 40})
	want := [][2]int{{0, 7}, {7, 40}, {40, 0}, {0, 40}, {7, 0}, {40, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LeaderLinks = %v, want %v", got, want)
	}
	// W·⌈log2 W⌉ links for any W.
	for w, rounds := range map[int]int{2: 1, 4: 2, 5: 3, 8: 3} {
		leaders := make([]int, w)
		for i := range leaders {
			leaders[i] = 10 * i
		}
		if n := len(engine.LeaderLinks(leaders)); n != w*rounds {
			t.Errorf("%d workers: %d leader links, want %d", w, n, w*rounds)
		}
	}
}

func TestNewWorkerMachineRejectsBadLeaders(t *testing.T) {
	for name, leaders := range map[string][]int{
		"nil":          nil,
		"missing lo":   {0, 5},
		"unsorted":     {3, 0, 5},
		"out of range": {0, 3, 9},
	} {
		if m, err := NewWorkerMachine(8, 3, 5, leaders, Options{}); err == nil {
			m.Close()
			t.Errorf("%s: leaders %v accepted for range [3,5) of 8", name, leaders)
		}
	}
}

// TestBarrierFailuresUnwindEveryWaiter is the abort matrix of the
// in-memory barrier: whatever stops a barrier from completing — a
// canceled context, a rank that never comes — every parked rank unwinds,
// the error says who and why, no goroutine is left behind, and the same
// machine runs the next barrier cleanly. A rank killed on its way in is
// the "injected kill" row of engine's TestConformance.
func TestBarrierFailuresUnwindEveryWaiter(t *testing.T) {
	const p = 6
	m, err := NewMachine(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	healthy := func() {
		t.Helper()
		var arrived atomic.Int64
		if _, err := m.Run(Options{RecvTimeout: 30 * time.Second}, barrierRounds(t, p, 2, 2, &arrived)); err != nil {
			t.Fatalf("run after a failed barrier: %v", err)
		}
	}
	healthy()
	baseline := runtime.NumGoroutine()

	t.Run("canceled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var parked atomic.Int64
		_, err := m.Run(Options{Context: ctx, RecvTimeout: 30 * time.Second}, func(pr *Proc) {
			if pr.Rank() == 0 {
				for parked.Load() < p-1 {
					time.Sleep(time.Millisecond)
				}
				cancel()
				<-ctx.Done()
				return
			}
			parked.Add(1)
			pr.Barrier()
		})
		if err == nil || !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("cancellation not reported: %v", err)
		}
		waitGoroutinesSettle(t, baseline)
		healthy()
	})

	t.Run("absent ranks", func(t *testing.T) {
		start := time.Now()
		_, err := m.Run(Options{RecvTimeout: 100 * time.Millisecond}, func(pr *Proc) {
			if pr.Rank() == 1 || pr.Rank() == 5 {
				return // never enter the barrier
			}
			pr.Barrier()
		})
		// Whichever waiter wakes first reports; the rest unwind behind it.
		if err == nil || !regexp.MustCompile(`rank [0234]: barrier: blocked 100ms \(deadline exceeded\) waiting for ranks \[1 5\]`).MatchString(err.Error()) {
			t.Fatalf("stall error does not name a waiter and the absentees: %v", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("stalled barrier took %v to fail", d)
		}
		waitGoroutinesSettle(t, baseline)
		healthy()
	})
}
