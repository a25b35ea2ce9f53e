package comm_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/live"
)

// rotate is a script over p ranks with a register per rank: every rank
// files its bundle under its own number, then the bundles travel once
// around the ring, and a subgroup barrier of the even ranks closes it.
func rotate(p int) comm.Script {
	var even []int
	for r := 0; r < p; r += 2 {
		even = append(even, r)
	}
	return comm.Script{Regs: p, Rank: func(b *comm.Builder, rank int) {
		b.Swap(rank)
		b.Phase("rotate")
		for t := 0; t < p-1; t++ {
			b.Iter(t)
			b.Phase("rotate") // in it already: written once
			b.Send((rank+1)%p, (rank-t+p)%p)
			b.Recv((rank+p-1)%p, (rank-t-1+p)%p)
		}
		b.Barrier()
		if rank%2 == 0 {
			b.Sub(even, rank/2)
			b.Barrier()
			b.Top()
		}
	}}
}

// TestScriptPerformedAndCompiledAgree: a rank gets the same bundle whether
// it performs its part of a script as the script writes it (Script.Run) or
// executes its operations of the compiled program (Program.Run) — the
// registers joined in order, here every rank's part in rank order.
func TestScriptPerformedAndCompiledAgree(t *testing.T) {
	const p = 5
	sc := rotate(p)
	prog, err := sc.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if prog.P() != p || prog.Regs() != p {
		t.Fatalf("program for %d ranks with %d registers, want %d and %d", prog.P(), prog.Regs(), p, p)
	}
	phases := 0
	for _, op := range prog.Ops(0) {
		if op.Kind == comm.OpPhase {
			phases++
		}
	}
	if phases != 1 {
		t.Errorf("rank 0 marks its one phase %d times", phases)
	}
	var streamed, compiled [p]comm.Message
	for _, run := range []struct {
		out *[p]comm.Message
		fn  func(c comm.Comm, mine comm.Message) comm.Message
	}{{&streamed, sc.Run}, {&compiled, prog.Run}} {
		if _, err := liveRun(p, live.Options{}, func(pr *live.Proc) {
			run.out[pr.Rank()] = run.fn(pr, comm.Message{Tag: 7, Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte{byte(pr.Rank())}}}})
		}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < p; r++ {
		if got := compiled[r].Origins(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) || compiled[r].Parts[3].Origin != 3 || compiled[r].Tag != 7 {
			t.Errorf("rank %d ends with %v (origins %v), want every rank's part in rank order under tag 7", r, compiled[r], got)
		}
		if !reflect.DeepEqual(streamed[r], compiled[r]) {
			t.Errorf("rank %d: performed %v, compiled %v", r, streamed[r], compiled[r])
		}
	}
}

func TestCompileRejectsRegisterOutOfRange(t *testing.T) {
	for _, sc := range []comm.Script{
		{Regs: 2, Rank: func(b *comm.Builder, rank int) { b.Send(0, 2) }},
		{Regs: 2, Rank: func(b *comm.Builder, rank int) { b.Take(2, 0, comm.Sel{Count: 0}) }},
	} {
		if _, err := sc.Compile(3); err == nil || !strings.Contains(err.Error(), "register 2 of 2") {
			t.Errorf("a script using register 2 of 2 compiled: %v", err)
		}
	}
}

// TestOpIsEightBytes keeps an operation at eight bytes: what does not fit
// goes to a table of the program, so no program's slab grows.
func TestOpIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(comm.Op{}); n != 8 {
		t.Errorf("comm.Op is %d bytes, want 8", n)
	}
}
