package stpbcast_test

import (
	"testing"

	stpbcast "repro"
)

// Each Benchmark below regenerates one table or figure of the paper
// (Section 5). The benchmark time is the host cost of the simulation; the
// reported custom metrics carry the reproduced result itself:
// "sim_ms_total" sums the simulated broadcast times of every point of the
// figure, and "points" counts the measured (x, curve) pairs. Run
//
//	go test -bench=Fig -benchmem
//
// to regenerate everything, or cmd/stpbench to print the full tables.

func benchExperiment(b *testing.B, id string) {
	exp, err := stpbcast.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	points := 0
	for i := 0; i < b.N; i++ {
		s, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		points = 0
		for _, curve := range s.Order {
			for i := range s.XLabels {
				total += s.Get(curve, i)
				points++
			}
		}
	}
	b.ReportMetric(total, "sim_ms_total")
	b.ReportMetric(float64(points), "points")
}

// BenchmarkFig2Parameters regenerates the Figure 2 characteristic
// parameter table (congestion, wait, send/rec, av_msg_lgth, av_act_proc).
func BenchmarkFig2Parameters(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3SourcesSweep regenerates Figure 3: 10×10 Paragon, equal
// distribution, L=4K, s=1..100, seven algorithms.
func BenchmarkFig3SourcesSweep(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4MessageSweep regenerates Figure 4: message-length sweep on
// the right diagonal distribution.
func BenchmarkFig4MessageSweep(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5MachineSweep regenerates Figure 5: machine sizes 4..256.
func BenchmarkFig5MachineSweep(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6Distributions regenerates Figure 6: all eight source
// distributions × the three Br algorithms.
func BenchmarkFig6Distributions(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7FixedVolume regenerates Figure 7: fixed 80K total volume
// spread over 5..80 sources.
func BenchmarkFig7FixedVolume(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Dimensions regenerates Figure 8: the 120-processor machine
// under every factorization.
func BenchmarkFig8Dimensions(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9ReposSources regenerates Figure 9: repositioning gain vs
// source count.
func BenchmarkFig9ReposSources(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10ReposMessage regenerates Figure 10: repositioning gain vs
// message length.
func BenchmarkFig10ReposMessage(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11T3DAllGather regenerates Figure 11 (a: machine sweep,
// b: source sweep) for MPI_AllGather on the T3D.
func BenchmarkFig11T3DAllGather(b *testing.B) {
	b.Run("a", func(b *testing.B) { benchExperiment(b, "fig11a") })
	b.Run("b", func(b *testing.B) { benchExperiment(b, "fig11b") })
}

// BenchmarkFig12T3DFixedVolume regenerates Figure 12: fixed 128K volume on
// the 128-processor T3D.
func BenchmarkFig12T3DFixedVolume(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13T3DCompare regenerates Figure 13 (a: source sweep,
// b: distribution sweep) comparing AllGather, Alltoall and Br_Lin.
func BenchmarkFig13T3DCompare(b *testing.B) {
	b.Run("a", func(b *testing.B) { benchExperiment(b, "fig13a") })
	b.Run("b", func(b *testing.B) { benchExperiment(b, "fig13b") })
}

// BenchmarkPartitioningAblation regenerates the Section 5.2 comparison of
// partitioning vs repositioning.
func BenchmarkPartitioningAblation(b *testing.B) { benchExperiment(b, "ablation-part") }

// BenchmarkIndexingAblation compares snake vs row-major Br_Lin.
func BenchmarkIndexingAblation(b *testing.B) { benchExperiment(b, "ablation-indexing") }

// BenchmarkSwitchingAblation compares wormhole vs store-and-forward.
func BenchmarkSwitchingAblation(b *testing.B) { benchExperiment(b, "ablation-switching") }

// BenchmarkPlacementAblation compares T3D placements.
func BenchmarkPlacementAblation(b *testing.B) { benchExperiment(b, "ablation-placement") }

// BenchmarkIdealTargetAblation compares Repos_Lin repositioning targets.
func BenchmarkIdealTargetAblation(b *testing.B) { benchExperiment(b, "ablation-ideal") }

// BenchmarkSimulatorHost measures the host-side cost of the discrete-event
// engine itself on a representative instance (useful when optimizing the
// simulator, independent of any figure).
func BenchmarkSimulatorHost(b *testing.B) {
	m := stpbcast.NewParagon(16, 16)
	cfg := stpbcast.Config{Algorithm: "Br_xy_source", Distribution: "E", Sources: 64, MsgBytes: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveEngineHost measures the live goroutine engine moving real
// bytes on the same instance.
func BenchmarkLiveEngineHost(b *testing.B) {
	m := stpbcast.NewParagon(8, 8)
	cfg := stpbcast.Config{Algorithm: "Br_xy_source", Distribution: "E", Sources: 16, MsgBytes: 4096}
	payload := make([]byte, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stpbcast.Run(m, stpbcast.EngineLive, cfg, stpbcast.RunOptions{Payload: func(int) []byte { return payload }}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPEngineHost measures the loopback-socket engine moving real
// bytes end to end (connection setup included — it dominates, which is
// why the simulator exists for timing studies).
func BenchmarkTCPEngineHost(b *testing.B) {
	m := stpbcast.NewParagon(4, 4)
	cfg := stpbcast.Config{Algorithm: "Br_xy_source", Distribution: "E", Sources: 8, MsgBytes: 4096}
	payload := make([]byte, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stpbcast.Run(m, stpbcast.EngineTCP, cfg, stpbcast.RunOptions{Payload: func(int) []byte { return payload }}); err != nil {
			b.Fatal(err)
		}
	}
}
