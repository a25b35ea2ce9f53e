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
