package cluster

import (
	"testing"

	"repro/internal/bench"
)

// TestFigClusterRegistered: linking this package must make the figure
// visible to the experiment registry (it registers at init to keep
// bench free of a cluster dependency).
func TestFigClusterRegistered(t *testing.T) {
	e, err := bench.ByID("figCluster")
	if err != nil {
		t.Fatal(err)
	}
	if e.Run == nil {
		t.Fatal("figCluster registered without a Run func")
	}
}

// TestFigClusterShape is the tentpole's acceptance check: the largest
// swept point — the paper's p=256 mesh — broadcast across 4 worker OS
// processes over the sparse dial plan, with zero lazy dials.
func TestFigClusterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and builds a p=256 mesh")
	}
	const rows, cols = 16, 16
	pt, err := figClusterPoint(rows, cols, figClusterWorkers)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("p=%d across %d workers: setup %.1f ms, bcast %.2f ms, %d inter-worker links, %d lazy dials",
		rows*cols, pt.Procs, pt.SetupMs, pt.BcastMs, pt.InterLinks, pt.LazyDials)
	if pt.Procs < 4 {
		t.Fatalf("broadcast spanned %d worker processes, want >= 4", pt.Procs)
	}
	// The wire carries the barrier's W·⌈log2 W⌉ = 8 leader links plus the
	// few links on which Br_Lin's E(4) bundles cross a range boundary
	// (10 in all, at every swept p). A plan that still dissemination-
	// linked every rank would cross hundreds of times (766 at p=256).
	if pt.InterLinks < 8 || pt.InterLinks > rows*cols/4 {
		t.Fatalf("%d inter-worker links, want the 8 leader links plus a handful of schedule links", pt.InterLinks)
	}
	if pt.LazyDials != 0 {
		t.Fatalf("%d lazy dials over the planned sparse mesh, want 0", pt.LazyDials)
	}
	if pt.BcastMs <= 0 {
		t.Fatalf("non-positive broadcast time %.3f ms", pt.BcastMs)
	}
}
