package sim

import (
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

// mustCompile compiles s for a machine of p.
func mustCompile(t testing.TB, s comm.Script, p int) *comm.Program {
	t.Helper()
	prog, err := s.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// everyOp is a script that uses every operation: a barrier rank 0 reaches
// last, a rotation of bundles kept in registers of their own, a merge into
// the first, an emptied register, reversed and strided selections of parts
// of unequal lengths, folds with and without a message, a token round and
// self-charged combines.
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
		b.Iter(2)
		b.Phase("select")
		b.SendParts(next, 0, comm.Sel{Off: 1, Stride: -1, Count: 2})
		b.Recv(prev, 1)
		b.Take(2, 0, comm.Sel{Off: 0, Stride: 1, Count: 1})
		b.Take(2, 1, comm.Sel{Off: 1, Stride: -1, Count: 2})
		b.SendParts(prev, 2, comm.Sel{Off: 0, Stride: 2, Count: 2})
		b.Fold(next, 0)
		b.Fold(-1, 2)
		b.Token(next, 5, 7)
		b.Drop(prev)
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

// TestReplayMatchesRun is the engine-level half of the replay-vs-goroutine
// test (internal/core runs the registry): on a hand-written program using
// every operation the two drivers give the same result and emit the same
// events in the same global order.
func TestReplayMatchesRun(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		prog := mustCompile(t, everyOp(p), p)
		res, errs, events := bothDrivers(t, lineNet(t, p), prog, Options{})
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("p=%d: Run: %v, Replay: %v", p, errs[0], errs[1])
		}
		if res[0].Program != nil || res[1].Program != prog {
			t.Errorf("p=%d: Run reports program %p, Replay %p, want none and %p", p, res[0].Program, res[1].Program, prog)
		}
		res[0].Program = prog
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("p=%d: results differ:\n    Run %+v\n Replay %+v", p, res[0], res[1])
		}
		if !slices.Equal(events[0], events[1]) {
			t.Errorf("p=%d: event sequences differ:\n    Run %+v\n Replay %+v", p, events[0], events[1])
		}
		if p > 1 && (res[1].Procs[0].CombineTime == 0 || len(events[1]) == 0 || events[1][len(events[1])-1].Iter != 3) {
			t.Errorf("p=%d: the program did not do what the test means it to: %+v", p, res[1])
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
	}}
	_, errs, _ := bothDrivers(t, lineNet(t, 3), mustCompile(t, stuck, 3), Options{})
	if want := "sim: deadlock: rank 0 in barrier; rank 2 waits on 1;"; errs[0] == nil || errs[0].Error() != want || errs[1] == nil || errs[1].Error() != want {
		t.Errorf("deadlock: Run says %v, Replay says %v, want %q", errs[0], errs[1], want)
	}

	stray := mustCompile(t, comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) { b.Send(rank+1, 0) }}, 2)
	if _, err := Replay(lineNet(t, 2), stray, func(int) (int, int) { return 0, 0 }, Options{}); err == nil || !strings.Contains(err.Error(), "rank 1 sends to invalid rank 2") {
		t.Errorf("send outside the machine: got %v", err)
	}
	if _, err := Replay(lineNet(t, 3), stray, func(int) (int, int) { return 0, 0 }, Options{}); err == nil || !strings.Contains(err.Error(), "program for 2 ranks") {
		t.Errorf("program of another machine size: got %v", err)
	}
}
