package sim

import (
	"strings"
	"testing"

	"repro/internal/comm"
)

// TestReplayErrors: a program that cannot finish ends its replay with an
// error naming where it stopped.
func TestReplayErrors(t *testing.T) {
	stuck := comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		switch rank {
		case 0:
			b.Barrier()
		case 2:
			b.Recv(1, 0) // never sent
		}
	}}
	if _, err := replay(t, lineNet(t, 3), stuck, none, Options{}); err == nil || err.Error() != "sim: deadlock: rank 0 in barrier; rank 2 waits on 1;" {
		t.Errorf("deadlock: got %v", err)
	}

	stray := mustCompile(t, comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) { b.Send(rank+1, 0) }}, 2)
	if _, err := Replay(lineNet(t, 2), stray, none, Options{}); err == nil || !strings.Contains(err.Error(), "rank 1 sends to invalid rank 2") {
		t.Errorf("send outside the machine: got %v", err)
	}
	if _, err := Replay(lineNet(t, 3), stray, none, Options{}); err == nil || !strings.Contains(err.Error(), "program for 2 ranks") {
		t.Errorf("program of another machine size: got %v", err)
	}
}

// TestReplayRefusesNegativeIteration: a mark of a negative iteration is
// an OpIter of its own — no operation carries it (comm.Op.Adv) — and the
// replay fails on it by name, as the first mark of a rank or after a run
// of marks the next operation carries.
func TestReplayRefusesNegativeIteration(t *testing.T) {
	for _, marks := range [][]int{{-1}, {0, 1, 2, -1}} {
		sc := comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
			if rank == 1 {
				for _, it := range marks {
					b.Iter(it)
				}
			}
			b.Barrier()
		}}
		prog := mustCompile(t, sc, 2)
		if ops := prog.Ops(1); ops[0].Kind != comm.OpIter || ops[0].Arg() != -1 || ops[0].Adv() != len(marks)-1 {
			t.Errorf("marks %v compile to %+v, want an OpIter of -1 first", marks, ops)
		}
		if _, err := Replay(lineNet(t, 2), prog, none, Options{}); err == nil || err.Error() != "sim: rank 1 begins negative iteration -1" {
			t.Errorf("marks %v: got %v", marks, err)
		}
	}
}
