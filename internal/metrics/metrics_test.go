package metrics

import (
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

// star runs a 2-iteration program: iteration 0 everyone sends to rank 0;
// iteration 1 rank 0 replies to rank 1 only.
func star(t *testing.T) *sim.Result {
	t.Helper()
	res, err := sim.Run(flatNet(t, 4), func(p *sim.Proc) {
		comm.MarkIter(p, 0)
		if p.Rank() == 0 {
			for src := 1; src < 4; src++ {
				p.Recv(src)
			}
		} else {
			p.Send(0, comm.Message{Parts: []comm.Part{{Data: make([]byte, 100)}}})
		}
		comm.MarkIter(p, 1)
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Parts: []comm.Part{{Data: make([]byte, 50)}}})
		}
		if p.Rank() == 1 {
			p.Recv(0)
		}
	}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
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

func TestZeroIterationRun(t *testing.T) {
	// A run without MarkIter still yields sane parameters (implicit
	// iteration 0 is created on first activity).
	res, err := sim.Run(flatNet(t, 2), func(p *sim.Proc) {
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Parts: []comm.Part{{Data: make([]byte, 10)}}})
		} else {
			p.Recv(0)
		}
	}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := FromResult(res)
	if p.SendRec != 1 || p.Congestion != 1 {
		t.Fatalf("params: %+v", p)
	}
}
