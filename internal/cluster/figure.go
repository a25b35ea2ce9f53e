package cluster

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/topology"
)

func init() {
	bench.Register(bench.Experiment{
		ID:        "figCluster",
		Title:     "Multi-process cluster: p=64..256 sparse Br_Lin broadcast across 4 worker OS processes, per-mesh setup and broadcast time",
		Paper:     "Beyond the paper: the paper's p=256 Paragon runs one process per node; this figure runs the same sparse dial plan split across 4 coordinator-spawned worker processes on localhost, proving the mesh partitioning keeps every planned pair wired (zero lazy dials) while the frame protocol crosses process boundaries unchanged.",
		WallClock: true,
		Run:       runFigCluster,
	})
}

// figCluster workload: 1 KiB Br_Lin broadcasts, distribution E, s=4
// sources, over the traced sparse link plan, with the mesh split across
// figClusterWorkers coordinator-spawned OS processes.
const (
	figClusterWorkers  = 4
	figClusterMsgBytes = 1024
	figClusterSources  = 4
	figClusterRuns     = 3 // broadcast repetitions per mesh; best-of
)

var figClusterMeshes = [][2]int{{8, 8}, {16, 8}, {16, 16}}

// clusterPoint is one swept mesh size: wall-clock to bootstrap the
// worker processes and their wired mesh, best-of broadcast time, and
// the partition/dial counters behind the zero-lazy-dials claim.
type clusterPoint struct {
	SetupMs    float64
	BcastMs    float64
	InterLinks int
	LazyDials  int
	Procs      int // distinct worker OS processes
}

// figClusterPoint bootstraps a cluster of spawned worker processes for
// one mesh size, runs the broadcast figClusterRuns times, and tears the
// cluster down. Callers must have routed worker re-executions through
// MaybeWorker (stpbench and the cluster test binary both do).
func figClusterPoint(rows, cols, workers int) (clusterPoint, error) {
	m := machine.Paragon(rows, cols)
	d, err := dist.ByName("E")
	if err != nil {
		return clusterPoint{}, err
	}
	sources, err := d.Sources(rows, cols, figClusterSources)
	if err != nil {
		return clusterPoint{}, err
	}
	// Snake indexing to match the worker side's default.
	spec := core.Spec{Rows: rows, Cols: cols, Sources: sources, Indexing: topology.SnakeRowMajor}
	routes, err := plan.Routes(m, core.BrLin(), spec, figClusterMsgBytes)
	if err != nil {
		return clusterPoint{}, err
	}

	setupStart := time.Now()
	c, err := Start(Spec{Workers: workers, P: rows * cols, Links: routes})
	if err != nil {
		return clusterPoint{}, fmt.Errorf("cluster %dx%d: %w", rows, cols, err)
	}
	defer c.Close()
	pt := clusterPoint{
		SetupMs:    float64(time.Since(setupStart).Microseconds()) / 1000,
		InterLinks: c.InterLinks(),
		Procs:      len(c.WorkerPIDs()),
	}

	rs := RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: core.BrLin().Name(),
		MsgBytes: figClusterMsgBytes, RecvTimeoutNs: int64(time.Minute),
	}
	for i := 0; i < figClusterRuns; i++ {
		res, err := c.Run(rs)
		if err != nil {
			return clusterPoint{}, fmt.Errorf("cluster %dx%d run %d: %w", rows, cols, i, err)
		}
		ms := float64(res.Elapsed.Microseconds()) / 1000
		if i == 0 || ms < pt.BcastMs {
			pt.BcastMs = ms
		}
		pt.LazyDials = res.LazyDials
	}
	return pt, nil
}

func runFigCluster() (*bench.Series, error) {
	s := bench.NewSeries(
		"Sparse broadcast across 4 worker processes (Br_Lin, E, s=4, 1 KiB)",
		"mesh (p)", "ms (setup, bcast) / count (inter, lazy)",
		"setup_ms", "bcast_ms", "inter_links", "lazy_dials",
	)
	for _, mesh := range figClusterMeshes {
		rows, cols := mesh[0], mesh[1]
		pt, err := figClusterPoint(rows, cols, figClusterWorkers)
		if err != nil {
			return nil, err
		}
		s.AddX(fmt.Sprintf("%dx%d (%d)", rows, cols, rows*cols),
			pt.SetupMs, pt.BcastMs, float64(pt.InterLinks), float64(pt.LazyDials))
	}
	s.Notes = fmt.Sprintf("each mesh is split across %d coordinator-spawned worker OS processes on localhost; bcast is best of %d runs; lazy_dials must be 0 (every wire pair pre-dialed from the traced plan)", figClusterWorkers, figClusterRuns)
	return s, nil
}
