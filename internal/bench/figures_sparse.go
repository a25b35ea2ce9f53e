package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/tcp"
)

func init() {
	register(Experiment{
		ID:        "figSparseMesh",
		Title:     "Route-aware sparse TCP mesh vs full mesh: connections, setup time and a real-byte Br_Lin broadcast up to p=256",
		Paper:     "Beyond the paper: the paper's NX runs scale to hundreds of nodes because the machine provides the links; the TCP engine's historical full mesh pays O(p²) sockets for schedules that touch ~p·log p of them. This figure measures the sparse route-planned mesh against the full one.",
		WallClock: true,
		Run:       runFigSparseMesh,
	})
}

// figSparseMesh workload parameters. The fd budget caps the full mesh:
// p=256 would need p(p−1)/2 = 32 640 connections (~65 k descriptors),
// beyond the harness's limit, so the full-mesh curves record 0 there —
// exactly the scaling wall the sparse mesh removes.
const (
	sparseSources  = 4
	sparseMsgLen   = 512
	sparseFullMaxP = 128
)

// sparseMeshes are the Paragon shapes swept: p = 16 … 256.
var sparseMeshes = [][2]int{{4, 4}, {4, 8}, {8, 8}, {8, 16}, {16, 16}}

// runFigSparseMesh builds, per machine size, a sparse mesh from the
// routes Br_Lin actually uses (plan.Routes) and the historical full
// mesh, recording connection counts and setup times, then runs one real
// Br_Lin broadcast over the sparse mesh — the p≥128 rows are the runs
// the full mesh cannot reach on this harness.
func runFigSparseMesh() (*Series, error) {
	d, err := dist.ByName("E")
	if err != nil {
		return nil, err
	}
	alg := core.BrLin()

	s := NewSeries(
		fmt.Sprintf("Sparse route-planned mesh vs full mesh, Br_Lin/E/s=%d, %d B payloads", sparseSources, sparseMsgLen),
		"ranks p", "counts and ms",
		"pairs", "sparse conns", "full conns", "sparse setup ms", "full setup ms", "bcast ms")
	s.Notes = fmt.Sprintf("The sparse mesh dials only the links the algorithm's traced schedule uses — at most "+
		"p/2·log2 p pairs instead of p(p−1)/2; the barrier synchronises in memory and needs none — so setup stays near-linear in p "+
		"and the broadcast completes at p=256 where the full mesh would need ~65k descriptors (full-mesh "+
		"columns record 0 past p=%d for that reason).", sparseFullMaxP)

	for _, mesh := range sparseMeshes {
		rows, cols := mesh[0], mesh[1]
		m := machine.Paragon(rows, cols)
		p := rows * cols
		spec, err := SpecFor(m, d, sparseSources)
		if err != nil {
			return nil, err
		}
		routes, err := plan.Routes(m, alg, spec, sparseMsgLen)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		tm, err := tcp.NewMachine(p, tcp.Options{Links: routes})
		if err != nil {
			return nil, fmt.Errorf("bench: figSparseMesh sparse p=%d: %w", p, err)
		}
		sparseSetup := time.Since(start)
		pairs, sparseConns := tm.PlannedPairs(), tm.ConnsOpened()

		bcast, err := sparseBroadcast(tm, spec, alg)
		if err != nil {
			tm.Close()
			return nil, fmt.Errorf("bench: figSparseMesh broadcast p=%d: %w", p, err)
		}
		if err := tm.Close(); err != nil {
			return nil, err
		}

		fullConns, fullSetup := 0, time.Duration(0)
		if p <= sparseFullMaxP {
			start = time.Now()
			fm, err := tcp.NewMachine(p, tcp.Options{})
			if err != nil {
				return nil, fmt.Errorf("bench: figSparseMesh full p=%d: %w", p, err)
			}
			fullSetup = time.Since(start)
			fullConns = fm.ConnsOpened()
			if err := fm.Close(); err != nil {
				return nil, err
			}
		}

		s.AddX(fmt.Sprintf("%d", p),
			float64(pairs), float64(sparseConns), float64(fullConns),
			float64(sparseSetup.Microseconds())/1e3, float64(fullSetup.Microseconds())/1e3,
			float64(bcast.Microseconds())/1e3)
	}
	return s, nil
}

// sparseBroadcast runs one real-byte Br_Lin broadcast over the warm
// sparse machine and verifies every rank leaves with all s payloads.
func sparseBroadcast(tm *tcp.Machine, spec core.Spec, alg core.Algorithm) (time.Duration, error) {
	payload := make([]byte, sparseMsgLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	p := spec.P()
	parts := make([]int, p)
	alg = core.Bind(alg, spec)
	res, err := tm.Run(tcp.Options{RecvTimeout: time.Minute}, func(pr *tcp.Proc) {
		out := alg.Run(pr, spec, core.InitialMessage(spec, pr.Rank(), payload))
		parts[pr.Rank()] = len(out.Parts)
	})
	if err != nil {
		return 0, err
	}
	for rank, n := range parts {
		if n != len(spec.Sources) {
			return 0, fmt.Errorf("rank %d finished with %d parts, want %d", rank, n, len(spec.Sources))
		}
	}
	return res.Elapsed, nil
}
