package sim

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

type eventLog []obs.Event

func (l *eventLog) Trace(e obs.Event) { *l = append(*l, e) }

// bothDrivers runs prog under Run — every processor a goroutine executing
// its part of it — and under Replay, every rank entering with a one-part
// bundle of 10·(rank+1) bytes, and returns what each driver gave.
func bothDrivers(t *testing.T, nw *network.Network, prog *comm.Program, opts Options) (res [2]*Result, errs [2]error, events [2]eventLog) {
	t.Helper()
	opts.Tracer = &events[0]
	res[0], errs[0] = Run(nw, func(p *Proc) {
		prog.Run(p, comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Size: 10 * (p.Rank() + 1)}}})
	}, opts)
	opts.Tracer = &events[1]
	res[1], errs[1] = Replay(nw, prog, func(rank int) (int, int) { return 10 * (rank + 1), 1 }, opts)
	return
}

// everyOp is a script that uses every operation: a barrier rank 0 reaches
// last, a rotation of bundles kept in registers of their own, a merge into
// the first, an emptied register, a token round and self-charged combines.
func everyOp(p int) comm.Script {
	return comm.Script{Regs: 3, Rank: func(b *comm.Builder, rank int) {
		next, prev := (rank+1)%p, (rank+p-1)%p
		b.Swap(1)
		b.Iter(0)
		b.Phase("rotate")
		if rank == 0 {
			b.Combine(1) // late for the barrier
		}
		b.Barrier()
		b.Send(next, 1)
		b.Recv(prev, 2)
		b.Iter(1)
		b.Phase("merge")
		b.Grow(0, 3)
		b.Send(next, 2)
		b.Merge(prev, 0)
		b.Move(next, 1)
		b.Merge(prev, 0)
		b.Combine(0)
		b.Combine(1) // empty by now
		b.Iter(3)
		b.Phase("tokens")
		b.Barrier()
		b.Sub([]int{0, 1, 2, 3, 4, 5, 6, 7}[:p], rank)
		b.Barrier()
		b.Top()
	}}
}

// TestReplayMatchesRun is the engine-level half of the program-vs-code
// test (internal/core runs the registry): on a hand-written program using
// every operation the two drivers give the same result and emit the same
// events in the same global order.
func TestReplayMatchesRun(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		res, errs, events := bothDrivers(t, lineNet(t, p), everyOp(p).Compile(p), Options{})
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("p=%d: Run: %v, Replay: %v", p, errs[0], errs[1])
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("p=%d: results differ:\n    Run %+v\n Replay %+v", p, res[0], res[1])
		}
		if !slices.Equal(events[0], events[1]) {
			t.Errorf("p=%d: event sequences differ:\n    Run %+v\n Replay %+v", p, events[0], events[1])
		}
		if p > 1 && (res[1].Iterations != 4 || res[1].Procs[0].CombineTime == 0 || len(events[1]) == 0) {
			t.Errorf("p=%d: the program did not do what the test means it to: %+v", p, res[1])
		}
	}
}

// TestReplayCountsOperationsLikeRun pins the MaxOps budget under Replay: it
// counts Send, Recv and Barrier operations exactly as Run does — a Send
// that gave way, or a Recv that blocked, is not counted again when it is
// picked up — so for every budget both drivers stop at the same operation
// (the same events were emitted up to it) with ErrMaxOps, or both finish.
func TestReplayCountsOperationsLikeRun(t *testing.T) {
	const p = 5
	prog := everyOp(p).Compile(p)
	total := 0
	for r := 0; r < p; r++ {
		for _, op := range prog.Ops(r) {
			switch op.Kind {
			case comm.OpSend, comm.OpMove, comm.OpToken, comm.OpRecv, comm.OpMerge, comm.OpDrop, comm.OpBarrier:
				total++
			}
		}
	}
	for budget := 1; budget <= total+1; budget++ {
		_, errs, events := bothDrivers(t, lineNet(t, p), prog, Options{MaxOps: budget})
		for i, err := range errs {
			if over := budget < total; over != errors.Is(err, ErrMaxOps) || !over && err != nil {
				t.Fatalf("budget %d of %d operations, driver %d: got %v", budget, total, i, err)
			}
		}
		if !slices.Equal(events[0], events[1]) {
			t.Fatalf("budget %d: the drivers stopped at different operations: Run emitted %d events, Replay %d", budget, len(events[0]), len(events[1]))
		}
	}
}

// TestReplayErrors: what ends a Run with an error ends a Replay with the
// same one.
func TestReplayErrors(t *testing.T) {
	stuck := comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		switch rank {
		case 0:
			b.Barrier()
		case 2:
			b.Recv(1, 0) // never sent
		}
	}}.Compile(3)
	_, errs, _ := bothDrivers(t, lineNet(t, 3), stuck, Options{})
	if want := "sim: deadlock: rank 0 in barrier; rank 2 waits on 1;"; errs[0] == nil || errs[0].Error() != want || errs[1] == nil || errs[1].Error() != want {
		t.Errorf("deadlock: Run says %v, Replay says %v, want %q", errs[0], errs[1], want)
	}

	stray := comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) { b.Send(rank+1, 0) }}.Compile(2)
	if _, err := Replay(lineNet(t, 2), stray, func(int) (int, int) { return 0, 0 }, Options{}); err == nil || !strings.Contains(err.Error(), "rank 1 sends to invalid rank 2") {
		t.Errorf("send outside the machine: got %v", err)
	}
	if _, err := Replay(lineNet(t, 3), stray, func(int) (int, int) { return 0, 0 }, Options{}); err == nil || !strings.Contains(err.Error(), "program for 2 ranks") {
		t.Errorf("program of another machine size: got %v", err)
	}
}
