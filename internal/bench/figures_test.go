package bench

import (
	"math"
	"sync"
	"testing"
)

// Each figure's series is computed once and shared across shape tests.
var (
	figOnce  sync.Once
	figData  map[string]*Series
	figError error
)

func figures(t *testing.T) map[string]*Series {
	t.Helper()
	figOnce.Do(func() {
		figData = make(map[string]*Series)
		for _, e := range Experiments() {
			s, err := e.Run()
			if err != nil {
				figError = err
				return
			}
			figData[e.ID] = s
		}
	})
	if figError != nil {
		t.Fatal(figError)
	}
	return figData
}

// last returns a curve's value at the final x position.
func last(s *Series, curve string) float64 { return s.Get(curve, len(s.XLabels)-1) }

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-adaptive", "ablation-calibration", "ablation-dims3d", "ablation-discovery", "ablation-hypercube",
		"ablation-ideal", "ablation-indep",
		"ablation-indexing", "ablation-part", "ablation-placement", "ablation-switching",
		"ablation-varlen",
		"fig10", "fig11a", "fig11b", "fig12", "fig13a", "fig13b",
		"fig2", "fig2-growth", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"figAuto", "figCollectives",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" {
			t.Errorf("%s missing title/paper note", e.ID)
		}
	}
	if _, err := ByID("fig3"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestFig3Shape — Paragon: Br_* lowest and near-identical, linear in s;
// 2-Step and PersAlltoAll poor; MPI variants worse than NX.
func TestFig3Shape(t *testing.T) {
	s := figures(t)["fig3"]
	// At every s ≥ 10, each Br curve beats 2-Step, and beats PersAlltoAll
	// with a 10% tolerance near s=p where the personalized exchange's
	// bandwidth efficiency catches up in the contention model.
	for i := 1; i < len(s.XLabels); i++ {
		for _, br := range []string{"Br_Lin", "Br_xy_source", "Br_xy_dim"} {
			if s.Get(br, i) >= s.Get("2-Step", i) {
				t.Errorf("s=%s: %s (%.2f) not below 2-Step (%.2f)", s.XLabels[i], br, s.Get(br, i), s.Get("2-Step", i))
			}
			if s.Get(br, i) >= 1.1*s.Get("PersAlltoAll", i) {
				t.Errorf("s=%s: %s (%.2f) not below 1.1× PersAlltoAll (%.2f)", s.XLabels[i], br, s.Get(br, i), s.Get("PersAlltoAll", i))
			}
		}
	}
	// The three Br curves stay within 40% of each other at the endpoint.
	a, b := last(s, "Br_xy_source"), last(s, "Br_Lin")
	if b > 1.4*a {
		t.Errorf("Br_Lin (%.2f) more than 40%% above Br_xy_source (%.2f)", b, a)
	}
	// Roughly linear growth in s for Br_xy_source: time(100) within a
	// factor 2 of 10×(time(10)−t0)+t0 is far too strict; instead require
	// monotone growth and super-5× total increase.
	if last(s, "Br_xy_source") < 5*s.Get("Br_xy_source", 1) {
		t.Errorf("Br_xy_source growth too flat: %.2f vs %.2f", last(s, "Br_xy_source"), s.Get("Br_xy_source", 1))
	}
	// MPI variants worse than (or equal to) their NX originals at the
	// endpoint within simulation noise.
	if last(s, "MPI_AllGather") <= last(s, "2-Step")*0.99 {
		t.Errorf("MPI_AllGather (%.2f) cheaper than NX 2-Step (%.2f)", last(s, "MPI_AllGather"), last(s, "2-Step"))
	}
}

// TestFig4Shape — flat below ~512B, linear after; baselines poor at all L.
func TestFig4Shape(t *testing.T) {
	s := figures(t)["fig4"]
	// Flat region: 32B → 512B grows less than 2.5× for Br_xy_source.
	if g := s.Get("Br_xy_source", 4) / s.Get("Br_xy_source", 0); g > 2.5 {
		t.Errorf("Br_xy_source small-L growth %.2f× too steep", g)
	}
	// Linear region: 8K → 16K roughly doubles (within [1.5, 2.5]).
	if g := s.Get("Br_xy_source", 9) / s.Get("Br_xy_source", 8); g < 1.5 || g > 2.5 {
		t.Errorf("Br_xy_source large-L doubling factor %.2f", g)
	}
	// PersAlltoAll nearly flat to 1K: ≤ 1.6× from 32B to 1K.
	if g := s.Get("PersAlltoAll", 5) / s.Get("PersAlltoAll", 0); g > 1.6 {
		t.Errorf("PersAlltoAll flat region grew %.2f×", g)
	}
	// Baselines above Br_* at every L ≥ 512.
	for i := 4; i < len(s.XLabels); i++ {
		if s.Get("2-Step", i) <= s.Get("Br_xy_source", i) {
			t.Errorf("L=%s: 2-Step (%.2f) not above Br_xy_source (%.2f)", s.XLabels[i], s.Get("2-Step", i), s.Get("Br_xy_source", i))
		}
	}
}

// TestFig5Shape — PersAlltoAll competitive on tiny machines, degrading on
// large ones.
func TestFig5Shape(t *testing.T) {
	s := figures(t)["fig5"]
	// p=4: PersAlltoAll within 20% of the best curve.
	best := s.Get("Br_xy_source", 0)
	for _, name := range s.Order {
		if v := s.Get(name, 0); v < best {
			best = v
		}
	}
	if s.Get("PersAlltoAll", 0) > 1.2*best {
		t.Errorf("p=4: PersAlltoAll (%.3f) not competitive with best (%.3f)", s.Get("PersAlltoAll", 0), best)
	}
	// p=256: PersAlltoAll at least 3× the best Br curve.
	if last(s, "PersAlltoAll") < 3*last(s, "Br_xy_source") {
		t.Errorf("p=256: PersAlltoAll (%.3f) did not degrade vs Br_xy_source (%.3f)", last(s, "PersAlltoAll"), last(s, "Br_xy_source"))
	}
}

// TestFig6Shape — distribution effects on the Paragon.
func TestFig6Shape(t *testing.T) {
	s := figures(t)["fig6"]
	idx := func(name string) int {
		for i, x := range s.XLabels {
			if x == name {
				return i
			}
		}
		t.Fatalf("distribution %s missing", name)
		return -1
	}
	// Cross costs Br_xy_source noticeably more than the equal
	// distribution (the paper's hard pattern).
	if s.Get("Br_xy_source", idx("Cr")) < 1.2*s.Get("Br_xy_source", idx("E")) {
		t.Errorf("Br_xy_source: Cr (%.2f) not ≥1.2× E (%.2f)", s.Get("Br_xy_source", idx("Cr")), s.Get("Br_xy_source", idx("E")))
	}
	// Br_Lin handles the cross best of the three algorithms.
	cr := idx("Cr")
	if s.Get("Br_Lin", cr) >= s.Get("Br_xy_source", cr) || s.Get("Br_Lin", cr) >= s.Get("Br_xy_dim", cr) {
		t.Errorf("Br_Lin (%.2f) not best on Cr (xy_source %.2f, xy_dim %.2f)",
			s.Get("Br_Lin", cr), s.Get("Br_xy_source", cr), s.Get("Br_xy_dim", cr))
	}
	// Br_xy_dim jumps on the row distribution (wrong first dimension).
	r := idx("R")
	if s.Get("Br_xy_dim", r) < 1.25*s.Get("Br_xy_source", r) {
		t.Errorf("Br_xy_dim on R (%.2f) not ≥1.25× Br_xy_source (%.2f)", s.Get("Br_xy_dim", r), s.Get("Br_xy_source", r))
	}
	// Row and column are (near-)ideal for Br_xy_source: within 10% of E.
	for _, d := range []string{"R", "C"} {
		if s.Get("Br_xy_source", idx(d)) > 1.1*s.Get("Br_xy_source", idx("E")) {
			t.Errorf("Br_xy_source on %s (%.2f) not near E (%.2f)", d, s.Get("Br_xy_source", idx(d)), s.Get("Br_xy_source", idx("E")))
		}
	}
}

// TestFig7Shape — fixed total volume: more sources is faster.
func TestFig7Shape(t *testing.T) {
	s := figures(t)["fig7"]
	// s=40 at least 1.25× faster than s=5 for Br_xy_source (paper: 11.4
	// → 7.3 ms ≈ 1.56×).
	if g := s.Get("Br_xy_source", 0) / s.Get("Br_xy_source", 3); g < 1.25 {
		t.Errorf("fixed-volume speedup s=5→40 only %.2f×", g)
	}
	// Monotone non-increasing within 5% tolerance for Br_xy_source.
	for i := 1; i < len(s.XLabels); i++ {
		if s.Get("Br_xy_source", i) > 1.05*s.Get("Br_xy_source", i-1) {
			t.Errorf("fixed-volume time increased at s=%s: %.2f → %.2f", s.XLabels[i], s.Get("Br_xy_source", i-1), s.Get("Br_xy_source", i))
		}
	}
}

// TestFig8Shape — machine dimensions interact with the distribution: the
// s=15 beats s=8 anomaly on some 120-processor shapes, and dimension
// spread grows with s.
func TestFig8Shape(t *testing.T) {
	s := figures(t)["fig8"]
	anomaly := false
	for i := range s.XLabels {
		if s.Get("s=15", i) < s.Get("s=8", i) {
			anomaly = true
		}
	}
	if !anomaly {
		t.Error("s=15 never beats s=8 across dimensions (paper's anomaly missing)")
	}
	spread := func(curve string) float64 {
		lo, hi := s.Get(curve, 0), s.Get(curve, 0)
		for i := range s.XLabels {
			v := s.Get(curve, i)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi / lo
	}
	if spread("s=30") <= spread("s=8") {
		t.Errorf("dimension spread for s=30 (%.2f) not larger than for s=8 (%.2f)", spread("s=30"), spread("s=8"))
	}
}

// TestFig9Shape — repositioning gains: large for cross, bounded loss for
// band, tapering with s.
func TestFig9Shape(t *testing.T) {
	s := figures(t)["fig9"]
	// Cross gains by at least 10% somewhere, and stays positive until the
	// source count gets large.
	maxCr := s.Get("Cr", 0)
	for i := range s.XLabels {
		if v := s.Get("Cr", i); v > maxCr {
			maxCr = v
		}
	}
	if maxCr < 10 {
		t.Errorf("max cross gain %.1f%% below 10%%", maxCr)
	}
	// Band never loses more than ~20% (paper: up to 6.5%; our permutation
	// overhead weighs more at small s).
	for i := range s.XLabels {
		if v := s.Get("B", i); v < -20 {
			t.Errorf("band loss %.1f%% at s=%s exceeds bound", v, s.XLabels[i])
		}
	}
	// Gain tapers: the cross gain at the largest s is below its maximum.
	if last(s, "Cr") >= maxCr {
		t.Errorf("cross gain did not taper: last %.1f%% vs max %.1f%%", last(s, "Cr"), maxCr)
	}
}

// TestFig10Shape — repositioning benefit rises with message length for
// every distribution, pays earliest for the cross.
func TestFig10Shape(t *testing.T) {
	s := figures(t)["fig10"]
	for _, d := range s.Order {
		if last(s, d) <= s.Get(d, 0) {
			t.Errorf("%s: repositioning benefit did not rise with L (%.1f%% → %.1f%%)", d, s.Get(d, 0), last(s, d))
		}
	}
	// At 1K, only the cross is clearly positive.
	i1k := 2 // 256, 512, 1024
	if s.Get("Cr", i1k) < 0 {
		t.Errorf("cross gain at 1K is negative: %.1f%%", s.Get("Cr", i1k))
	}
	if s.Get("E", i1k) > s.Get("Cr", i1k) {
		t.Errorf("equal gain (%.1f%%) above cross gain (%.1f%%) at 1K", s.Get("E", i1k), s.Get("Cr", i1k))
	}
}

// TestFig11Shape — T3D AllGather: distribution effects small on small
// machines, square block worst on large ones; deterioration as s→p.
func TestFig11Shape(t *testing.T) {
	a := figures(t)["fig11a"]
	// p=32: all distributions within 5%.
	for _, d := range a.Order {
		if g := a.Get(d, 0) / a.Get("E", 0); g > 1.05 || g < 0.95 {
			t.Errorf("p=32: %s at %.2f× of E", d, g)
		}
	}
	// p=256: Sq at least 1.3× the equal distribution.
	if g := last(a, "Sq") / last(a, "E"); g < 1.3 {
		t.Errorf("p=256: Sq only %.2f× of E", g)
	}
	b := figures(t)["fig11b"]
	// Deterioration: monotone growth in s for E.
	for i := 1; i < len(b.XLabels); i++ {
		if b.Get("E", i) <= b.Get("E", i-1) {
			t.Errorf("fig11b not deteriorating at s=%s", b.XLabels[i])
		}
	}
	// E best or near-best at every s (the diagonal is an equally uniform
	// rank-space spread, so it may edge E out by a few percent), and the
	// square block clearly worse than E at moderate s.
	for i := range b.XLabels {
		for _, d := range b.Order {
			if b.Get(d, i) < 0.85*b.Get("E", i) {
				t.Errorf("fig11b s=%s: %s (%.2f) clearly beats E (%.2f)", b.XLabels[i], d, b.Get(d, i), b.Get("E", i))
			}
		}
	}
	if b.Get("Sq", 2) < 1.3*b.Get("E", 2) {
		t.Errorf("fig11b s=16: Sq (%.2f) not ≥1.3× E (%.2f)", b.Get("Sq", 2), b.Get("E", 2))
	}
}

// TestFig12Shape — fixed volume on the T3D: more sources is faster;
// distribution matters mostly below p/4.
func TestFig12Shape(t *testing.T) {
	s := figures(t)["fig12"]
	if last(s, "E") >= s.Get("E", 0) {
		t.Errorf("more sources not faster: s=4 %.2f vs s=128 %.2f", s.Get("E", 0), last(s, "E"))
	}
	// Distribution spread at s=4 exceeds the spread at s=128.
	spreadAt := func(i int) float64 {
		lo, hi := s.Get(s.Order[0], i), s.Get(s.Order[0], i)
		for _, d := range s.Order {
			v := s.Get(d, i)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi / lo
	}
	if spreadAt(0) <= spreadAt(len(s.XLabels)-1)+0.01 {
		t.Errorf("distribution spread did not shrink: s=4 %.2f vs s=128 %.2f", spreadAt(0), spreadAt(len(s.XLabels)-1))
	}
}

// TestFig13Shape — the T3D inversion: MPI_Alltoall best for moderate and
// large s; Br_Lin above Alltoall (wait + combining); the gather+broadcast
// reading of AllGather far worse than the recursive-doubling model.
func TestFig13Shape(t *testing.T) {
	a := figures(t)["fig13a"]
	for i, x := range a.XLabels {
		if x == "40" || x == "64" || x == "96" || x == "128" {
			if a.Get("MPI_Alltoall", i) >= a.Get("Br_Lin", i) {
				t.Errorf("s=%s: Alltoall (%.2f) not below Br_Lin (%.2f)", x, a.Get("MPI_Alltoall", i), a.Get("Br_Lin", i))
			}
			if a.Get("MPI_Alltoall", i) >= a.Get("Gather_Bcast", i) {
				t.Errorf("s=%s: Alltoall (%.2f) not below Gather_Bcast (%.2f)", x, a.Get("MPI_Alltoall", i), a.Get("Gather_Bcast", i))
			}
		}
	}
	// AllGather stays within ~3× of Alltoall at s=p (the paper observes
	// full convergence; our combining charge keeps a residual gap —
	// see EXPERIMENTS.md).
	if g := last(a, "MPI_AllGather") / last(a, "MPI_Alltoall"); g > 3.0 {
		t.Errorf("AllGather/Alltoall ratio %.2f at s=128 too far from convergence", g)
	}
	b := figures(t)["fig13b"]
	// Alltoall within 1.5× of the best algorithm on every distribution.
	for i := range b.XLabels {
		best := b.Get(b.Order[0], i)
		for _, al := range b.Order {
			if v := b.Get(al, i); v < best {
				best = v
			}
		}
		if b.Get("MPI_Alltoall", i) > 1.5*best {
			t.Errorf("fig13b %s: Alltoall (%.2f) not within 1.5× of best (%.2f)", b.XLabels[i], b.Get("MPI_Alltoall", i), best)
		}
	}
}

// TestFig2Shape — the characteristic-parameter table: 2-Step's congestion
// scales with s, Br_Lin's stays constant; Br_Lin's send/rec is
// logarithmic while the baselines' is linear in p.
func TestFig2Shape(t *testing.T) {
	s := figures(t)["fig2"]
	row := func(param string) int {
		for i, x := range s.XLabels {
			if x == param {
				return i
			}
		}
		t.Fatalf("param %s missing", param)
		return -1
	}
	cong := row("congestion")
	if s.Get("2-Step s=64", cong) < 60 {
		t.Errorf("2-Step congestion %.0f not O(s)", s.Get("2-Step s=64", cong))
	}
	if s.Get("Br_Lin s=64", cong) > 4 {
		t.Errorf("Br_Lin congestion %.0f not O(1)", s.Get("Br_Lin s=64", cong))
	}
	if s.Get("PersAlltoAll s=64", cong) > 4 {
		t.Errorf("PersAlltoAll congestion %.0f not O(1)", s.Get("PersAlltoAll s=64", cong))
	}
	sr := row("send/rec")
	if s.Get("PersAlltoAll s=64", sr) < 250 {
		t.Errorf("PersAlltoAll send/rec %.0f not O(p)", s.Get("PersAlltoAll s=64", sr))
	}
	if s.Get("Br_Lin s=64", sr) > 20 {
		t.Errorf("Br_Lin send/rec %.0f not O(log p)", s.Get("Br_Lin s=64", sr))
	}
	wait := row("wait")
	if s.Get("2-Step s=64", wait) > 2 {
		t.Errorf("2-Step wait %.0f not O(1)", s.Get("2-Step s=64", wait))
	}
	if s.Get("Br_Lin s=64", wait) < 3 {
		t.Errorf("Br_Lin wait %.0f not Ω(log p)", s.Get("Br_Lin s=64", wait))
	}
}

// TestFig2GrowthShape — the power-of-two pathology: E(64) must stall in
// the first Br_Lin iteration (no new active processors beyond the
// sources' pairwise exchanges) while E(60) engages more processors early.
func TestFig2GrowthShape(t *testing.T) {
	s := figures(t)["fig2-growth"]
	// E(64)'s stride-4 sources pair with sources at every halving
	// distance that preserves the stride: the active set stays pinned at
	// 64 through the first three iterations (the paper's "first
	// iterations only increase the message length").
	for i := 0; i < 3; i++ {
		if s.Get("E(64)", i) > 64 {
			t.Errorf("E(64) iteration %d activated %.0f processors, want ≤64 (stall)", i+1, s.Get("E(64)", i))
		}
	}
	// E(60)'s irregular spacing breaks the alignment by iteration 3.
	if s.Get("E(60)", 2) <= s.Get("E(64)", 2) {
		t.Errorf("E(60) iteration 3 (%.0f) not above E(64) (%.0f)", s.Get("E(60)", 2), s.Get("E(64)", 2))
	}
}

// TestFigAutoShape — the planner's acceptance bar: in every
// (machine, distribution, s, L) cell, Auto runs within 10% of the best
// fixed algorithm, never beats it (it picks one of them), and the
// always-Repos_xy_source policy is never better than the per-cell best.
func TestFigAutoShape(t *testing.T) {
	s := figures(t)["figAuto"]
	for i, x := range s.XLabels {
		auto, best, repos := s.Get("Auto", i), s.Get("best-fixed", i), s.Get("Repos_xy_source", i)
		if auto > 1.10*best {
			t.Errorf("%s: Auto (%.3f ms) above 1.10× best fixed (%.3f ms)", x, auto, best)
		}
		if auto < best*0.999 {
			t.Errorf("%s: Auto (%.3f ms) below best fixed (%.3f ms) — measurement mismatch", x, auto, best)
		}
		if repos < best*0.999 {
			t.Errorf("%s: Repos_xy_source (%.3f ms) below best fixed (%.3f ms)", x, repos, best)
		}
	}
	// The fixed policy must actually lose somewhere, or the planner adds
	// nothing: Repos_xy_source exceeds 1.3× the best in at least one cell.
	worst := 0.0
	for i := range s.XLabels {
		if r := s.Get("Repos_xy_source", i) / s.Get("best-fixed", i); r > worst {
			worst = r
		}
	}
	if worst < 1.3 {
		t.Errorf("Repos_xy_source never worse than 1.3× best (max ratio %.2f) — grid too easy", worst)
	}
}

// TestFigCollectivesShape — the acceptance bar for the modern
// collective schedules: in every cell the newcomer (circulant broadcast
// or Jung–Sakho all-to-all) runs within 10% of the best pre-existing
// algorithm, it strictly beats the incumbent somewhere (the extension
// pays its way), and the per-collective planner tracks the cell's true
// best within 10%.
func TestFigCollectivesShape(t *testing.T) {
	s := figures(t)["figCollectives"]
	if len(s.XLabels) == 0 {
		t.Fatal("figCollectives produced no cells")
	}
	beats := false
	for i, x := range s.XLabels {
		auto, newc, inc := s.Get("Auto", i), s.Get("newcomer", i), s.Get("incumbent-best", i)
		if auto <= 0 || newc <= 0 || inc <= 0 {
			t.Fatalf("%s: non-positive timing (auto %.3f, newcomer %.3f, incumbent %.3f)", x, auto, newc, inc)
		}
		if newc > 1.10*inc {
			t.Errorf("%s: newcomer (%.3f ms) above 1.10× incumbent best (%.3f ms)", x, newc, inc)
		}
		if best := math.Min(newc, inc); auto > 1.10*best {
			t.Errorf("%s: Auto (%.3f ms) above 1.10× cell best (%.3f ms)", x, auto, best)
		}
		if newc < inc*0.999 {
			beats = true
		}
	}
	if !beats {
		t.Error("newcomers never beat the incumbent in any cell — extension adds nothing")
	}
}

// TestAblationShapes — the Section 5.2 partitioning claim and the T3D
// placement effect.
func TestAblationShapes(t *testing.T) {
	part := figures(t)["ablation-part"]
	// Partitioning never beats repositioning by more than noise.
	for i := range part.XLabels {
		if part.Get("Part_xy_source", i) < 0.95*part.Get("Repos_xy_source", i) {
			t.Errorf("s=%s: partitioning (%.2f) beats repositioning (%.2f)", part.XLabels[i], part.Get("Part_xy_source", i), part.Get("Repos_xy_source", i))
		}
	}
	place := figures(t)["ablation-placement"]
	// Random placement costs Br_Lin at least as much as dimension-ordered.
	for i := range place.XLabels {
		if place.Get("random", i) < place.Get("dimension-ordered", i)*0.98 {
			t.Errorf("s=%s: random placement (%.2f) cheaper than ordered (%.2f)", place.XLabels[i], place.Get("random", i), place.Get("dimension-ordered", i))
		}
	}
	indep := figures(t)["ablation-indep"]
	// Uncoordinated broadcasts degrade sharply with s (the paper's
	// congestion argument): at s=100 they cost ≥2× Br_Lin.
	if indep.Get("Indep_1toP", len(indep.XLabels)-1) < 2*indep.Get("Br_Lin", len(indep.XLabels)-1) {
		t.Errorf("Indep_1toP (%.2f) not ≥2× Br_Lin (%.2f) at s=100",
			indep.Get("Indep_1toP", len(indep.XLabels)-1), indep.Get("Br_Lin", len(indep.XLabels)-1))
	}
	disc := figures(t)["ablation-discovery"]
	// Discovery overhead is bounded (< 40%) and shrinks relative to the
	// broadcast as s grows.
	for i := range disc.XLabels {
		if v := disc.Get("overhead %", i); v < 0 || v > 40 {
			t.Errorf("discovery overhead %.1f%% at s=%s out of bounds", v, disc.XLabels[i])
		}
	}
	varlen := figures(t)["ablation-varlen"]
	// The paper: moderate length skew does not change performance
	// significantly. The extreme one-heavy shape is the boundary of that
	// claim — it degenerates toward the s=1 point of Figure 7 and must be
	// clearly slower than uniform.
	for _, alg := range varlen.Order {
		uniform := varlen.Get(alg, 0)
		if v := varlen.Get(alg, 1); v > 1.35*uniform || v < 0.65*uniform {
			t.Errorf("%s: skewed-2x %.2f vs uniform %.2f — more than ±35%%", alg, v, uniform)
		}
		if v := varlen.Get(alg, 2); v < 1.5*uniform {
			t.Errorf("%s: one-heavy %.2f not ≥1.5× uniform %.2f (should degenerate toward s=1)", alg, v, uniform)
		}
	}
	hc := figures(t)["ablation-hypercube"]
	// With identical cost parameters, the hypercube's wiring must never
	// hurt Br_Lin and must clearly help the all-to-all traffic of
	// PersAlltoAll (richer bisection) at full load.
	for i := range hc.XLabels {
		if hc.Get("Br_Lin/6-cube", i) > 1.02*hc.Get("Br_Lin/mesh8x8", i) {
			t.Errorf("s=%s: Br_Lin on 6-cube (%.2f) above mesh (%.2f)",
				hc.XLabels[i], hc.Get("Br_Lin/6-cube", i), hc.Get("Br_Lin/mesh8x8", i))
		}
	}
	lastIdx := len(hc.XLabels) - 1
	if hc.Get("PersAlltoAll/6-cube", lastIdx) >= hc.Get("PersAlltoAll/mesh8x8", lastIdx) {
		t.Errorf("s=64: PersAlltoAll on 6-cube (%.2f) not below mesh (%.2f)",
			hc.Get("PersAlltoAll/6-cube", lastIdx), hc.Get("PersAlltoAll/mesh8x8", lastIdx))
	}
	ad := figures(t)["ablation-adaptive"]
	// Adaptive repositioning must track the better of always/never within
	// 10% on every distribution.
	for i := range ad.XLabels {
		best := ad.Get("never", i)
		if v := ad.Get("always", i); v < best {
			best = v
		}
		if ad.Get("adaptive", i) > 1.1*best {
			t.Errorf("%s: adaptive (%.2f) above 1.1× best of always/never (%.2f)",
				ad.XLabels[i], ad.Get("adaptive", i), best)
		}
	}
	cal := figures(t)["ablation-calibration"]
	// The qualitative ranking must hold at every calibration scale.
	for i := range cal.XLabels {
		if cal.Get("Br_xy_source", i) >= cal.Get("PersAlltoAll", i) {
			t.Errorf("scale %s: Br_xy_source (%.2f) not below PersAlltoAll (%.2f)",
				cal.XLabels[i], cal.Get("Br_xy_source", i), cal.Get("PersAlltoAll", i))
		}
		if cal.Get("PersAlltoAll", i) >= cal.Get("2-Step", i) {
			t.Errorf("scale %s: PersAlltoAll (%.2f) not below 2-Step (%.2f)",
				cal.XLabels[i], cal.Get("PersAlltoAll", i), cal.Get("2-Step", i))
		}
	}
	d3 := figures(t)["ablation-dims3d"]
	// The 3-D dimension order must beat plain Br_Lin on the torus at
	// moderate-to-large s (shorter lines, better locality per phase).
	if d3.Get("Br_dims3D", 2) >= d3.Get("Br_Lin", 2) {
		t.Errorf("s=96: Br_dims3D (%.2f) not below Br_Lin (%.2f)", d3.Get("Br_dims3D", 2), d3.Get("Br_Lin", 2))
	}
	sw := figures(t)["ablation-switching"]
	// Store-and-forward is never cheaper than wormhole for 2-Step (long
	// paths to the root dominate).
	for i := range sw.XLabels {
		if sw.Get("2-Step/sf", i) < sw.Get("2-Step/wh", i) {
			t.Errorf("s=%s: store-and-forward 2-Step (%.2f) beat wormhole (%.2f)", sw.XLabels[i], sw.Get("2-Step/sf", i), sw.Get("2-Step/wh", i))
		}
	}
}
