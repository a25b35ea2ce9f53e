package comm_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// act is one operation a fuzzed script writes for one rank.
type act struct {
	kind              comm.OpKind
	peer, reg, dst, n int
	sel               comm.Sel
}

func (a act) write(b *comm.Builder) {
	switch a.kind {
	case comm.OpSend:
		b.Send(a.peer, a.reg)
	case comm.OpMove:
		b.Move(a.peer, a.reg)
	case comm.OpSendParts:
		b.SendParts(a.peer, a.reg, a.sel)
	case comm.OpToken:
		b.Token(a.peer, a.dst, a.n)
	case comm.OpRecv:
		b.Recv(a.peer, a.reg)
	case comm.OpMerge:
		b.Merge(a.peer, a.reg)
	case comm.OpDrop:
		b.Drop(a.peer)
	case comm.OpFold:
		b.Fold(a.peer, a.reg)
	case comm.OpTake:
		b.Take(a.dst, a.reg, a.sel)
	case comm.OpCombine:
		b.Combine(a.reg)
	case comm.OpGrow:
		b.Grow(a.reg, a.n)
	case comm.OpSwap:
		b.Swap(a.reg)
	case comm.OpIter:
		b.Iter(a.n)
	case comm.OpPhase:
		b.Phase(fmt.Sprint("phase", a.n))
	case comm.OpBarrier:
		b.Barrier()
	}
}

// The faults a fuzzed script may carry on one rank, after its last step.
const (
	wellFormed = iota
	badRegister
	badSelector
	unmatchedRecv
)

// fuzzed is a script decoded from fuzz input, with what it was made to be.
type fuzzed struct {
	p, regs int
	lens    []int // rank r enters with one part of lens[r] bytes, or none when 0
	acts    [][]act
	fault   int
}

func (f *fuzzed) script() comm.Script {
	return comm.Script{Regs: f.regs, Rank: func(b *comm.Builder, rank int) {
		for _, a := range f.acts[rank] {
			a.write(b)
		}
	}}
}

func (f *fuzzed) initial(rank int) comm.Message {
	if f.lens[rank] == 0 {
		return comm.Message{}
	}
	data := make([]byte, f.lens[rank])
	for i := range data {
		data[i] = byte(rank*31 + i)
	}
	return comm.Message{Parts: []comm.Part{{Origin: rank, Data: data}}}
}

// decodeScript reads a script from data, a byte at a time (zeros once it
// runs out). Every rank takes the same steps: a round in which each rank
// sends to the rank shift places on and receives from the rank shift
// places back, or an operation on its own registers. The decoder keeps
// every rank's part count per register, so each selector it writes is in
// range for the register it reads — unless the script is made to carry a
// fault.
func decodeScript(data []byte) *fuzzed {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v % n
	}
	f := &fuzzed{p: 1 + next(6), regs: 1 + next(4)}
	if f.fault = next(8); f.fault > unmatchedRecv {
		f.fault = wellFormed
	}
	p, regs := f.p, f.regs
	f.lens = make([]int, p)
	f.acts = make([][]act, p)
	parts := make([][]int, p) // parts[r][reg]
	for r := range p {
		if next(4) > 0 {
			f.lens[r] = 1 + next(40)
		}
		parts[r] = make([]int, regs)
		parts[r][0] = min(f.lens[r], 1)
	}
	// sel builds a selector in range for a register of n parts.
	sel := func(off, stride, count, n int) comm.Sel {
		if n == 0 {
			return comm.Sel{}
		}
		return comm.Sel{Off: off % n, Stride: stride%5 - 2, Count: count % (n + 1)}
	}
	iter := 0
	for steps := next(24); steps > 0; steps-- {
		kind, reg, dst := next(10), next(regs), next(regs)
		off, stride, count, n := next(256), next(256), next(256), next(8)
		if kind < 2 && p > 1 {
			shift := 1 + next(p-1)
			send := []comm.OpKind{comm.OpSend, comm.OpMove, comm.OpSendParts, comm.OpToken}[next(4)]
			recv := []comm.OpKind{comm.OpRecv, comm.OpMerge, comm.OpDrop, comm.OpFold}[next(4)]
			msg := make([]int, p)
			for r := range p {
				a := act{kind: send, peer: (r + shift) % p, reg: reg, dst: n - 4, n: 5 * (n % 3)}
				switch send {
				case comm.OpSend, comm.OpMove:
					msg[r] = parts[r][reg]
				case comm.OpSendParts:
					a.sel = sel(off, stride, count, parts[r][reg])
					msg[r] = a.sel.Count
				case comm.OpToken:
					msg[r] = min(a.n, 1)
				}
				if send == comm.OpMove {
					parts[r][reg] = 0
				}
				f.acts[r] = append(f.acts[r], a)
			}
			for r := range p {
				from := (r - shift + p) % p
				f.acts[r] = append(f.acts[r], act{kind: recv, peer: from, reg: dst})
				switch recv {
				case comm.OpRecv:
					parts[r][dst] = msg[from]
				case comm.OpMerge:
					parts[r][dst] += msg[from]
				case comm.OpFold:
					parts[r][dst] = min(parts[r][dst]+msg[from], 1)
				}
			}
			continue
		}
		for r := range p {
			a := act{reg: reg, dst: dst, n: n}
			switch kind {
			case 2, 3:
				a.kind, a.sel = comm.OpTake, sel(off, stride, count, parts[r][reg])
				parts[r][reg] = 0
				parts[r][dst] += a.sel.Count
			case 4:
				a.kind = comm.OpCombine
			case 5:
				a.kind = comm.OpGrow
			case 6:
				a.kind = comm.OpSwap
				parts[r][0], parts[r][reg] = parts[r][reg], parts[r][0]
			case 7:
				a.kind, a.peer = comm.OpFold, -1
				parts[r][reg] = min(parts[r][reg], 1)
			case 8:
				a.kind, a.n = comm.OpIter, iter
			default:
				a.kind = []comm.OpKind{comm.OpPhase, comm.OpBarrier}[n%2]
			}
			f.acts[r] = append(f.acts[r], a)
		}
		if kind == 8 {
			iter++
		}
	}
	r := next(p)
	switch f.fault {
	case badRegister:
		f.acts[r] = append(f.acts[r], act{kind: comm.OpCombine, reg: regs})
	case badSelector:
		f.acts[r] = append(f.acts[r], act{kind: comm.OpTake, sel: comm.Sel{Stride: 1, Count: parts[r][0] + 1}})
	case unmatchedRecv:
		f.acts[r] = append(f.acts[r], act{kind: comm.OpRecv, peer: (r + 1) % p})
	}
	return f
}

// FuzzProgram holds the ways a script is run together. A well-formed
// script gives every rank the same bundle whether its ranks perform it
// (Script.Run) or execute it compiled (Program.Run) on the live engine,
// and the simulator's replay of the program (sim.Replay) counts, rank by
// rank, the sends, receives and bytes sent that the live run of it made.
// An ill-formed one ends in an error on every path, never in a hang or a
// panic: a register the script does not have is refused by Compile, a
// selector out of range or a receive nobody sends to fails the run.
func FuzzProgram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 3, 9, 2, 17, 1, 30, 24, 0, 1, 0, 7, 3, 200, 2, 2, 1, 2, 0, 1, 1, 1, 2, 1, 9, 8, 7, 5, 3, 2, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := decodeScript(data)
		p, sc := fz.p, fz.script()
		opts := live.Options{RunTimeout: 10 * time.Second}
		if fz.fault != wellFormed {
			opts = live.Options{RecvTimeout: 100 * time.Millisecond}
		}
		runLive := func(run func(c comm.Comm, mine comm.Message) comm.Message) ([]comm.Message, *live.Result, error) {
			out := make([]comm.Message, p)
			res, err := liveRun(p, opts, func(pr *live.Proc) { out[pr.Rank()] = run(pr, fz.initial(pr.Rank())) })
			return out, res, err
		}
		performed, _, perr := runLive(sc.Run)
		prog, err := sc.Compile(p)
		if (err != nil) != (fz.fault == badRegister) {
			t.Fatalf("fault %d: Compile says %v", fz.fault, err)
		}
		if err != nil {
			if perr == nil {
				t.Fatalf("a script using a register it does not have performed without error")
			}
			return
		}
		compiled, ran, cerr := runLive(prog.Run)

		nw, err := network.New(topology.MustMesh2D(1, p), topology.IdentityPlacement(p), network.ParagonNX())
		if err != nil {
			t.Fatal(err)
		}
		replayed, rerr := sim.Replay(nw, prog, func(rank int) (int, int) { return fz.lens[rank], min(fz.lens[rank], 1) }, sim.Options{})

		if fz.fault != wellFormed {
			for i, err := range []error{perr, cerr, rerr} {
				if err == nil {
					t.Fatalf("fault %d: run %d of 3 ended without error", fz.fault, i)
				}
			}
			return
		}
		for i, err := range []error{perr, cerr, rerr} {
			if err != nil {
				t.Fatalf("run %d of 3: %v", i, err)
			}
		}
		if !reflect.DeepEqual(performed, compiled) {
			t.Fatalf("performed and compiled differ:\n%v\n%v", performed, compiled)
		}
		for r := range p {
			got, want := replayed.Procs[r], ran.Procs[r]
			if got.Sends != want.Sends || got.Recvs != want.Recvs || got.SendBytes != want.SendBytes {
				t.Fatalf("rank %d: the replay counts %d sends, %d receives, %d bytes sent; live %d, %d, %d",
					r, got.Sends, got.Recvs, got.SendBytes, want.Sends, want.Recvs, want.SendBytes)
			}
		}
	})
}
