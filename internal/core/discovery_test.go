package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/topology"
)

func TestWithDiscoveryCorrectBothEngines(t *testing.T) {
	for _, m := range [][2]int{{4, 4}, {3, 5}, {1, 7}} {
		r, c := m[0], m[1]
		p := r * c
		for _, s := range []int{1, p / 2, p} {
			if s < 1 {
				continue
			}
			spec := makeSpec(t, dist.Cross(), r, c, s)
			alg := WithDiscovery(BrXYSource())
			label := fmt.Sprintf("Discover/%dx%d/s=%d", r, c, s)
			runSim(t, alg, spec, 24)
			checkOut(t, label+" live", Broadcast, spec, runLive(t, alg, spec, 24), 24)
		}
	}
}

func TestWithDiscoveryName(t *testing.T) {
	if got := WithDiscovery(BrLin()).Name(); got != "Discover+Br_Lin" {
		t.Fatalf("Name = %q", got)
	}
}

func TestDiscoveryOverheadBounded(t *testing.T) {
	// The discovery phase must cost only a few extra rounds of p-byte
	// messages: for a 4K broadcast its overhead stays under 40%.
	spec := makeSpec(t, dist.Equal(), 8, 8, 16)
	plain := runSim(t, BrXYSource(), spec, 4096)
	disc := runSim(t, WithDiscovery(BrXYSource()), spec, 4096)
	if float64(disc.Elapsed) > 1.4*float64(plain.Elapsed) {
		t.Fatalf("discovery overhead too large: %d vs %d", disc.Elapsed, plain.Elapsed)
	}
	if disc.Elapsed <= plain.Elapsed {
		t.Fatalf("discovery was free: %d vs %d", disc.Elapsed, plain.Elapsed)
	}
}

func TestDiscoveryDetectsInconsistentSpec(t *testing.T) {
	// A processor that holds a payload but is not in spec.Sources is a
	// caller bug; discovery must catch it.
	spec := Spec{Rows: 2, Cols: 2, Sources: []int{0}, Indexing: topology.SnakeRowMajor}
	_, err := liveRun(4, live.Options{}, func(pr *live.Proc) {
		mine := comm.Message{}
		if pr.Rank() == 0 || pr.Rank() == 3 { // 3 lies about being a source
			mine = comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte{1}}}}
		}
		WithDiscovery(BrLin()).Run(pr, spec, mine)
	})
	if err == nil || !strings.Contains(err.Error(), "discover") {
		t.Fatalf("inconsistent source set not caught: %v", err)
	}
}

func TestIndepNoBarrier(t *testing.T) {
	// Indep_1toP must not synchronize: on the live engine a run with a
	// single source completes even though only the source knows anything
	// — every processor still receives via the tree.
	spec := makeSpec(t, dist.Equal(), 4, 4, 1)
	out, err := liveRun(16, live.Options{}, func(pr *live.Proc) {
		mine := InitialFor(Broadcast, spec, pr.Rank(), func(int) []byte { return []byte("solo") })
		got := Indep1toP().Run(pr, spec, mine)
		if len(got.Parts) != 1 || string(got.Parts[0].Data) != "solo" {
			t.Errorf("rank %d got %v", pr.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// No barrier operations: total ops = tree sends + recvs only.
	if out.Sends != 15 {
		t.Fatalf("single tree sent %d messages, want 15", out.Sends)
	}
}

func TestIndepCongestionWorseThanBrLin(t *testing.T) {
	// The paper's reason for rejecting uncoordinated broadcasts: with
	// many sources it floods the machine. At s=p/2 on a 10×10 Paragon it
	// must be clearly slower than Br_Lin.
	spec := makeSpec(t, dist.Equal(), 10, 10, 50)
	indep := runSim(t, Indep1toP(), spec, 2048)
	brlin := runSim(t, BrLin(), spec, 2048)
	if float64(indep.Elapsed) < 1.5*float64(brlin.Elapsed) {
		t.Fatalf("Indep_1toP (%d) not ≥1.5× Br_Lin (%d)", indep.Elapsed, brlin.Elapsed)
	}
}

func TestReposAdaptiveCorrectBothPaths(t *testing.T) {
	// Hard distribution (repositions) and near-ideal distribution
	// (skips): both must deliver.
	for _, d := range []dist.Distribution{dist.Cross(), dist.IdealRows()} {
		spec := makeSpec(t, d, 8, 8, 16)
		alg := ReposAdaptive(BrXYSource(), 0.1)
		runSim(t, alg, spec, 32)
		checkOut(t, alg.Name()+"/"+d.Name()+" live", Broadcast, spec, runLive(t, alg, spec, 32), 32)
	}
}

func TestReposAdaptiveSkipsOnIdeal(t *testing.T) {
	// On an already-ideal distribution the adaptive variant must cost
	// (nearly) the same as the plain algorithm — no permutation sends.
	spec := makeSpec(t, dist.IdealRows(), 16, 16, 32)
	plain := runSim(t, BrXYSource(), spec, 4096)
	adaptive := runSim(t, ReposAdaptive(BrXYSource(), 0.1), spec, 4096)
	plainSends, adaptiveSends := 0, 0
	for i := range plain.Procs {
		plainSends += plain.Procs[i].Sends
		adaptiveSends += adaptive.Procs[i].Sends
	}
	if adaptiveSends != plainSends {
		t.Fatalf("adaptive sent %d vs plain %d on an ideal distribution", adaptiveSends, plainSends)
	}
}

func TestReposAdaptiveRepositionsOnHard(t *testing.T) {
	// On the cross distribution the adaptive variant must behave like the
	// always-reposition algorithm (and beat the plain one at this size).
	spec := makeSpec(t, dist.Cross(), 16, 16, 64)
	plain := runSim(t, BrXYSource(), spec, 6144)
	always := runSim(t, ReposXYSource(), spec, 6144)
	adaptive := runSim(t, ReposAdaptive(BrXYSource(), 0.1), spec, 6144)
	if adaptive.Elapsed >= plain.Elapsed {
		t.Fatalf("adaptive (%d) did not beat plain (%d) on cross", adaptive.Elapsed, plain.Elapsed)
	}
	// Within 5% of always-reposition (identical decision, tiny barrier
	// bookkeeping differences allowed).
	ratio := float64(adaptive.Elapsed) / float64(always.Elapsed)
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("adaptive/always ratio %.3f", ratio)
	}
}

func TestGrowthEfficiencyDecision(t *testing.T) {
	ideal := makeSpec(t, dist.IdealRows(), 16, 16, 32)
	hard := makeSpec(t, dist.Square(), 16, 16, 32)
	if gi, gh := growthEfficiency(ideal), growthEfficiency(hard); gi <= gh {
		t.Fatalf("ideal efficiency %.2f not above square block %.2f", gi, gh)
	}
	full := makeSpec(t, dist.Equal(), 4, 4, 16)
	if g := growthEfficiency(full); g != 1 {
		t.Fatalf("s=p efficiency %.2f, want 1", g)
	}
}
