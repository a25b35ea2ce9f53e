package metrics

import (
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

func flatNet(t *testing.T, n int) *network.Network {
	t.Helper()
	cfg := network.Config{
		Name: "flat", SendOverhead: 10, RecvOverhead: 20, ByteCopyNS: 1,
		CombineByteNS: 2, NetStartup: 5, HopLatency: 1, LinkBandwidth: 1e9,
	}
	nw, err := network.New(topology.MustMesh2D(1, n), topology.IdentityPlacement(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// replay compiles s for p ranks and replays it on a 1×p line, rank r
// entering with a one-part bundle of size(r) bytes.
func replay(t *testing.T, s comm.Script, p int, size func(rank int) int) *sim.Result {
	t.Helper()
	prog, err := s.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Replay(flatNet(t, p), prog, func(rank int) (int, int) { return size(rank), 1 }, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// star is a 2-iteration program on 4 ranks: in iteration 0 everyone sends
// rank 0 its 100 bytes; in iteration 1 rank 0 sends 50 bytes to rank 1
// only.
func star(t *testing.T) *sim.Result {
	t.Helper()
	return replay(t, comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		b.Iter(0)
		if rank == 0 {
			for src := 1; src < 4; src++ {
				b.Recv(src, 0)
			}
		} else {
			b.Send(0, 0)
		}
		b.Iter(1)
		switch rank {
		case 0:
			b.Token(1, 0, 50)
		case 1:
			b.Drop(0)
		}
	}}, 4, func(int) int { return 100 })
}

func TestFromResultParameters(t *testing.T) {
	p := FromResult(star(t))
	// Congestion: rank 0 handles 3 receives in iteration 0.
	if p.Congestion != 3 {
		t.Errorf("congestion = %d, want 3", p.Congestion)
	}
	// send/rec: rank 0 does 3 recvs + 1 send.
	if p.SendRec != 4 {
		t.Errorf("send/rec = %d, want 4", p.SendRec)
	}
	// Waits: every receive in this program waits at least once; the max
	// is rank 0's first iteration (one blocked recv per sender at most).
	if p.Wait < 1 {
		t.Errorf("wait = %d, want ≥1", p.Wait)
	}
	if p.Iterations != 2 {
		t.Errorf("iterations = %d", p.Iterations)
	}
	// av_msg_lgth: rank 0 moved 300 bytes in iter 0 and 50 in iter 1 →
	// 175 average, the largest of any processor.
	if p.AvgMsgLen != 175 {
		t.Errorf("av_msg_lgth = %.1f, want 175", p.AvgMsgLen)
	}
	// av_act_proc: iteration 0 has 4 active, iteration 1 has 2 → 3.
	if p.AvgActive != 3 {
		t.Errorf("av_act_proc = %.1f, want 3", p.AvgActive)
	}
	if p.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestActiveProfile(t *testing.T) {
	got := ActiveProfile(star(t))
	want := []int{4, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ActiveProfile = %v, want %v", got, want)
	}
}

func TestFormatProfile(t *testing.T) {
	if got := FormatProfile([]int{4, 8, 16}); got != "4→8→16" {
		t.Errorf("FormatProfile = %q", got)
	}
	if got := FormatProfile(nil); got != "" {
		t.Errorf("empty profile = %q", got)
	}
}

// TestWaitShare: the fraction of the makespan the slowest processor spent
// waiting — the quantity the paper uses to explain Br_Lin's T3D behaviour
// ("the higher wait cost") — is read off sim.Result directly; the star
// must record some wait, and less than the whole run.
func TestWaitShare(t *testing.T) {
	res := star(t)
	var worst network.Time
	for _, ps := range res.Procs {
		worst = max(worst, ps.WaitTime)
	}
	if ws := float64(worst) / float64(res.Elapsed); ws <= 0 || ws >= 1 {
		t.Fatalf("wait share = %v", ws)
	}
}

// TestStaticOf pins the rule that reads iterations off a program: an
// operation communicates when it has a partner, and counts in the
// iteration of the last mark before it — iteration 0 before any — while a
// mark opens its iteration even if nothing communicates in it.
func TestStaticOf(t *testing.T) {
	exchange := comm.Script{Regs: 2, Rank: func(b *comm.Builder, rank int) {
		other := 1 - rank
		b.Iter(0)
		b.Send(other, 0)
		b.Merge(other, 0)
		b.Combine(0)
		b.Iter(1)
		b.Send(other, 0)
		b.Recv(other, 1)
	}}
	unmarked := comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		if rank == 0 {
			b.Send(1, 0)
			b.Iter(2)
		} else {
			b.Recv(0, 0)
		}
		b.Barrier()
	}}
	for _, c := range []struct {
		name string
		s    comm.Script
		want Static
	}{
		{"exchange", exchange, Static{Iterations: 2, Congestion: 2, SendRec: 4, Active: []int{2, 2}}},
		{"unmarked", unmarked, Static{Iterations: 3, Congestion: 1, SendRec: 1, Active: []int{2, 0, 0}}},
	} {
		prog, err := c.s.Compile(2)
		if err != nil {
			t.Fatal(err)
		}
		if got := StaticOf(prog); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: StaticOf = %+v, want %+v", c.name, got, c.want)
		}
	}
	// av_msg_lgth from the run's byte totals: 64 bytes each way in
	// iteration 0, then the merged 128 each way, over two iterations.
	if p := FromResult(replay(t, exchange, 2, func(int) int { return 64 })); p.AvgMsgLen != 192 || p.Iterations != 2 {
		t.Errorf("exchange: %+v, want av_msg_lgth 192 over 2 iterations", p)
	}
}

func TestZeroIterationRun(t *testing.T) {
	// A program without marks still yields sane parameters: its
	// communication counts in iteration 0.
	res := replay(t, comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		if rank == 0 {
			b.Send(1, 0)
		} else {
			b.Recv(0, 0)
		}
	}}, 2, func(int) int { return 10 })
	p := FromResult(res)
	if p.SendRec != 1 || p.Congestion != 1 || p.Iterations != 1 || p.AvgMsgLen != 10 {
		t.Fatalf("params: %+v", p)
	}
}
