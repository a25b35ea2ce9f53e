package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// TestBrXYSourceDimensionChoice verifies the max_r/max_c rule through
// observable behaviour: with a column distribution (few sources per row,
// many per column) the first phase must run along rows, so after phase one
// every processor of a source row is active. We detect the order through
// the iteration count split: phase one of a rows-first run on an r×c mesh
// takes ⌈log2 c⌉ iterations.
func TestBrXYSourceDimensionChoice(t *testing.T) {
	// 4×8 mesh, one full column (4 sources): max_r=1 < max_c=4 → rows
	// first → phase 1 = log2(8) = 3 iterations, phase 2 = log2(4) = 2.
	spec := makeSpec(t, dist.Column(), 4, 8, 4)
	_, res := runSim(t, BrXYSource(), spec, 64)
	if res.Iterations != 5 {
		t.Fatalf("iterations = %d, want 3 (rows) + 2 (cols)", res.Iterations)
	}
	profile := metrics.ActiveProfile(res)
	// Phase 1, iteration 1: only the source column's rows communicate —
	// 2 processors per source row (the pair) × 4 rows = 8.
	if profile[0] != 8 {
		t.Fatalf("iteration 1 active = %d, want 8 (row phase of column sources): %v", profile[0], profile)
	}
}

// TestBrXYDimIgnoresSources: Br_xy_dim picks rows first on a square mesh
// regardless of the distribution; on a row distribution that is the wrong
// order and must cost more than Br_xy_source's choice.
func TestBrXYDimIgnoresSources(t *testing.T) {
	spec := makeSpec(t, dist.Row(), 8, 8, 16)
	_, dim := runSim(t, BrXYDim(), spec, 2048)
	_, src := runSim(t, BrXYSource(), spec, 2048)
	if float64(dim.Elapsed) < 1.1*float64(src.Elapsed) {
		t.Fatalf("Br_xy_dim (%d) not clearly slower than Br_xy_source (%d) on row distribution", dim.Elapsed, src.Elapsed)
	}
}

// TestBrXYOnDegenerateMeshes: 1×n and n×1 meshes reduce both phases to a
// single line; the algorithms must still deliver.
func TestBrXYOnDegenerateMeshes(t *testing.T) {
	for _, algf := range []func() Algorithm{BrXYSource, BrXYDim} {
		for _, dims := range [][2]int{{1, 9}, {9, 1}} {
			spec := makeSpec(t, dist.Equal(), dims[0], dims[1], 3)
			out, _ := runSim(t, algf(), spec, 32)
			checkOut(t, algf().Name(), Broadcast, spec, out, 32)
		}
	}
}

// TestRunLineDirect exercises the halving engine on a hand-checked line.
func TestRunLineDirect(t *testing.T) {
	// Line of 5 with a single holder at position 2 (the odd middle of the
	// first segment): the odd rule must push its bundle to position 4.
	spec := Spec{Rows: 1, Cols: 5, Sources: []int{2}, Indexing: topology.RowMajor}
	out, res := runSim(t, BrLin(), spec, 16)
	checkOut(t, "line5", Broadcast, spec, out, 16)
	// ceil(log2 5) = 3 iterations.
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
}

// TestBrLinOddMeshSourceGrowth: the paper notes that odd dimensions
// introduce new sources where power-of-two-aligned column distributions
// stall. Compare the first-iteration growth of a full-column distribution
// on 8×8 (stalls) vs 7×8.
func TestBrLinOddMeshSourceGrowth(t *testing.T) {
	active1 := func(r, c, s int) int {
		spec := makeSpec(t, dist.Column(), r, c, s)
		_, res := runSim(t, BrLin(), spec, 64)
		return metrics.ActiveProfile(res)[0]
	}
	even := active1(8, 8, 8) // one full column on 8×8
	odd := active1(7, 8, 7)  // one full column on 7×8
	// On the even mesh, snake positions of a column repeat with period
	// 2·c and align with the halving distance; growth is possible but
	// the odd mesh must engage at least as many processors relative to
	// its source count.
	if float64(odd)/7 < float64(even)/8 {
		t.Fatalf("odd mesh growth %d/7 below even mesh %d/8", odd, even)
	}
}

func TestIdealForMapping(t *testing.T) {
	if d := IdealFor(BrLin(), 10, 10); d.Name() != "Dl" {
		t.Errorf("Br_Lin ideal = %s", d.Name())
	}
	if d := IdealFor(BrXYSource(), 10, 10); d.Name() != "IdealRows" {
		t.Errorf("Br_xy_source ideal = %s", d.Name())
	}
	if d := IdealFor(BrXYDim(), 16, 16); d.Name() != "IdealCols" {
		t.Errorf("Br_xy_dim (square) ideal = %s", d.Name())
	}
	if d := IdealFor(BrXYDim(), 4, 30); d.Name() != "IdealRows" {
		t.Errorf("Br_xy_dim (wide) ideal = %s", d.Name())
	}
	if d := IdealFor(TwoStep(), 8, 8); d.Name() != "IdealSnake" {
		t.Errorf("fallback ideal = %s", d.Name())
	}
}

// TestReposMovesMessagesOnce: repositioning is a partial permutation —
// exactly min(s, moved) messages travel, none twice. Count sends during
// the permutation phase by comparing against the inner algorithm alone on
// the ideal spec.
func TestReposMovesMessagesOnce(t *testing.T) {
	spec := makeSpec(t, dist.Square(), 8, 8, 16)
	_, repos := runSim(t, ReposXYSource(), spec, 64)
	ideal, err := dist.IdealRows().Sources(8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	idealSpec := Spec{Rows: 8, Cols: 8, Sources: ideal, Indexing: topology.SnakeRowMajor}
	_, inner := runSim(t, BrXYSource(), idealSpec, 64)
	reposSends, innerSends := 0, 0
	for i := range repos.Procs {
		reposSends += repos.Procs[i].Sends
		innerSends += inner.Procs[i].Sends
	}
	extra := reposSends - innerSends
	if extra < 0 || extra > 16 {
		t.Fatalf("permutation moved %d messages for 16 sources", extra)
	}
}

// TestPartSingleSourceAndTinyMachines: partitioning with s=1 leaves one
// half empty; 1×2 and 2×1 machines split into singletons.
func TestPartSingleSourceAndTinyMachines(t *testing.T) {
	for _, dims := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {1, 5}} {
		spec := makeSpec(t, dist.Equal(), dims[0], dims[1], 1)
		for _, alg := range []Algorithm{PartLin(), PartXYSource(), PartXYDim()} {
			out, _ := runSim(t, alg, spec, 16)
			checkOut(t, alg.Name(), Broadcast, spec, out, 16)
		}
	}
}

// TestPartUnevenHalves: odd column counts give halves of different sizes;
// the extra processors of the larger half must still receive the other
// half's bundle.
func TestPartUnevenHalves(t *testing.T) {
	spec := makeSpec(t, dist.DiagRight(), 3, 7, 6)
	out, _ := runSim(t, PartXYSource(), spec, 48)
	checkOut(t, "Part uneven", Broadcast, spec, out, 48)
}

// TestBrDimsMatchesBrXYShape: with two extents, Br_dims is the Br_xy
// pattern; delivery must be correct for both dimension orders on every
// distribution.
func TestBrDimsCorrectness(t *testing.T) {
	for _, m := range [][2]int{{4, 4}, {3, 5}} {
		r, c := m[0], m[1]
		p := r * c
		for _, d := range dist.All() {
			spec := makeSpec(t, d, r, c, p/2)
			for _, order := range [][]int{{0, 1}, {1, 0}} {
				alg := BrDims([]int{r, c}, order)
				out, _ := runSim(t, alg, spec, 16)
				checkOut(t, alg.Name(), Broadcast, spec, out, 16)
			}
		}
	}
}

// TestBrDims3D: a three-dimensional logical grid on 24 processors.
func TestBrDims3D(t *testing.T) {
	spec := makeSpec(t, dist.Equal(), 4, 6, 8) // 24 processors, ranks reused
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		alg := BrDims([]int{2, 3, 4}, order)
		out, _ := runSim(t, alg, spec, 32)
		checkOut(t, alg.Name(), Broadcast, spec, out, 32)
	}
}

// TestBrDims1D degenerates to Br_Lin on a row-major line.
func TestBrDims1D(t *testing.T) {
	spec := makeSpec(t, dist.Cross(), 2, 6, 5)
	alg := BrDims([]int{12}, []int{0})
	out, _ := runSim(t, alg, spec, 16)
	checkOut(t, alg.Name(), Broadcast, spec, out, 16)
}

func TestBrDimsValidation(t *testing.T) {
	cases := []brDims{
		{[]int{3}, []int{0}},         // wrong product
		{[]int{2, 2}, []int{0}},      // short order
		{[]int{2, 2}, []int{0, 0}},   // not a permutation
		{[]int{2, 2}, []int{0, 5}},   // out of range
		{[]int{-1, -4}, []int{0, 1}}, // negative extents
		{nil, nil},                   // empty
	}
	for i, alg := range cases {
		if err := alg.validate(4); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := (brDims{[]int{2, 2}, []int{1, 0}}).validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
