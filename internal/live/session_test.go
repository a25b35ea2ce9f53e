package live

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestLiveMachineBackToBackRuns reuses one machine for many runs; every
// run must see fresh per-run stats and a working barrier.
func TestLiveMachineBackToBackRuns(t *testing.T) {
	const p, runs = 4, 20
	mc, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	for r := 0; r < runs; r++ {
		res, err := mc.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
			next, prev := (pr.Rank()+1)%p, (pr.Rank()+p-1)%p
			pr.Send(next, comm.Message{Tag: r, Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte{byte(r)}}}})
			if got := pr.Recv(prev); got.Tag != r {
				t.Errorf("run %d rank %d: tag %d", r, pr.Rank(), got.Tag)
			}
			pr.Barrier()
		})
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
		if res.Procs[0].Sends != 1 {
			t.Fatalf("run %d stats not per-run: %+v", r, res.Procs[0])
		}
	}
}

// TestLiveMachineRecoversAfterAbort: a panicked run (with peers unwound
// from Recv and a half-entered barrier) must not poison the machine —
// the next runs succeed with no leftover abort cause or barrier skew.
func TestLiveMachineRecoversAfterAbort(t *testing.T) {
	const p = 4
	mc, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	_, err = mc.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
		switch pr.Rank() {
		case 0:
			time.Sleep(10 * time.Millisecond)
			panic("rank 0 died")
		case 1:
			pr.Recv(0)
		default:
			pr.Barrier() // abandoned mid-round: count must reset
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 died") {
		t.Fatalf("abort misreported: %v", err)
	}
	for r := 0; r < 3; r++ {
		if _, err := mc.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
			pr.Barrier()
			pr.Send((pr.Rank()+1)%p, comm.Message{Parts: []comm.Part{{Origin: pr.Rank()}}})
			pr.Recv((pr.Rank() + p - 1) % p)
			pr.Barrier()
		}); err != nil {
			t.Fatalf("post-abort run %d failed: %v", r, err)
		}
	}
}
