package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/par"
)

// entrant is one curve of a Paragon figure: an algorithm under the NX or
// the MPI cost profile.
type entrant struct {
	label string
	alg   core.Algorithm
	mpi   bool
}

// paragonFor builds the machine an entrant runs on.
func paragonFor(e entrant, rows, cols int) *machine.Machine {
	if e.mpi {
		return machine.ParagonMPI(rows, cols)
	}
	return machine.Paragon(rows, cols)
}

// nxFive is the five-algorithm NX set of Figures 4 and 5.
func nxFive() []entrant {
	return []entrant{
		{"Br_Lin", core.BrLin(), false},
		{"Br_xy_source", core.BrXYSource(), false},
		{"Br_xy_dim", core.BrXYDim(), false},
		{"2-Step", core.TwoStep(), false},
		{"PersAlltoAll", core.PersAlltoAll(), false},
	}
}

// sevenAlgs adds the MPI variants, the seven curves of Figure 3.
func sevenAlgs() []entrant {
	return append(nxFive(),
		entrant{"MPI_AllGather", core.TwoStep(), true},
		entrant{"MPI_Alltoall", core.PersAlltoAll(), true},
	)
}

// sweep measures every entrant at every x position of a rows×cols Paragon
// figure on the bounded worker pool; an entrant's cells share its machine.
func sweep(s *Series, entrants []entrant, rows, cols int, xs []string, run func(m *machine.Machine, e entrant, i int) (float64, error)) (*Series, error) {
	ms := make([]*machine.Machine, len(entrants))
	for j, e := range entrants {
		ms[j] = paragonFor(e, rows, cols)
	}
	return fillSeries(s, xs, len(entrants), func(i, j int) (float64, error) {
		return run(ms[j], entrants[j], i)
	})
}

func labels(entrants []entrant) []string {
	out := make([]string, len(entrants))
	for i, e := range entrants {
		out[i] = e.label
	}
	return out
}

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Characteristic parameters on the equal distribution (16×16 Paragon, L=1K, s=64 vs s=60)",
		Paper: "Asymptotic table: 2-Step O(s) congestion / O(p) send-rec; PersAlltoAll O(1) congestion / O(p) send-rec / O(L) av_msg / O(p) av_act; Br_Lin O(1) congestion / O(log p) wait and send-rec, with av_msg and av_act depending on whether s is a power of two.",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "10×10 Paragon, equal distribution, L=4K, s=1..100, seven algorithms",
		Paper: "Br_Lin/Br_xy_source/Br_xy_dim nearly identical, lowest, linear in s; 2-Step and PersAlltoAll poor; MPI variants worse than NX.",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "10×10 Paragon, right diagonal, s=30, L=32B..16K, five algorithms",
		Paper: "Br_* flat until ~512B then linear; 2-Step/PersAlltoAll poor at every L, PersAlltoAll almost flat to 1K.",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Paragon p=4..256 (square), right diagonal, s≈√p, L=1K, five algorithms",
		Paper: "PersAlltoAll as good as any for 4–16 processors, degrading on larger machines.",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "10×10 Paragon, L=2K, s=30, all eight distributions × three Br algorithms",
		Paper: "Row/column/equal/diagonals roughly equal for Br_xy_source; square block and cross considerably more expensive for all; Br_Lin copes best with cross; Br_xy_dim jumps on the row distribution.",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "10×10 Paragon, right diagonal, total volume fixed at 80K, s=5..80",
		Paper: "Spreading a fixed volume over more sources is faster: 11.4 ms at s=5 vs 7.3 ms at s=40 for Br_xy_source.",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "120-processor Paragon, dimensions 2×60..10×12, equal distribution, L=4K, Br_Lin with s ∈ {8,15,30}",
		Paper: "Dimensions matter more for larger s; s=15 can beat s=8 because E(15) lands on diagonals while E(8) lands in columns.",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "16×16 Paragon, L=6K, s=16..192: gain of Repos_xy_source over Br_xy_source (percent)",
		Paper: "Large gains for cross and square block (tens of percent, 13–31 ms); small losses (≤6.5%) for band; erratic for equal; gains taper as s grows.",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "16×16 Paragon, s=75, L=256B..16K: gain of Repos_xy_source over Br_xy_source (percent)",
		Paper: "Below ~1K repositioning pays only for the cross distribution; the benefit rises with L for all distributions, then tapers.",
		Run:   runFig10,
	})
}

func runFig2() (*Series, error) {
	algs := []entrant{
		{"2-Step", core.TwoStep(), false},
		{"PersAlltoAll", core.PersAlltoAll(), false},
		{"Br_Lin", core.BrLin(), false},
	}
	order := make([]string, 0, 2*len(algs))
	for _, a := range algs {
		order = append(order, a.label+" s=64", a.label+" s=60")
	}
	s := NewSeries("Figure 2 — characteristic parameters, E(s), 16×16 Paragon, L=1K", "parameter", "mixed units", order...)
	s.Notes = "s=64 is a power of two (slow early growth for Br_Lin), s=60 is not; av_msg_lgth in bytes, av_act_proc in processors."
	srcs := []int{64, 60}
	cells := make([]metrics.Params, len(order))
	if err := par.ForEach(len(order), func(k int) error {
		a, src := algs[k/len(srcs)], srcs[k%len(srcs)]
		m := paragonFor(a, 16, 16)
		spec, err := SpecFor(m, dist.Equal(), src)
		if err != nil {
			return err
		}
		res, err := Measure(m, a.alg, spec, 1024)
		if err != nil {
			return err
		}
		cells[k] = metrics.FromResult(res)
		return nil
	}); err != nil {
		return nil, err
	}
	params := make(map[string]metrics.Params, len(order))
	for k, name := range order {
		params[name] = cells[k]
	}
	rows := []struct {
		label string
		get   func(metrics.Params) float64
	}{
		{"congestion", func(p metrics.Params) float64 { return float64(p.Congestion) }},
		{"wait", func(p metrics.Params) float64 { return float64(p.Wait) }},
		{"send/rec", func(p metrics.Params) float64 { return float64(p.SendRec) }},
		{"av_msg_lgth", func(p metrics.Params) float64 { return p.AvgMsgLen }},
		{"av_act_proc", func(p metrics.Params) float64 { return p.AvgActive }},
		{"time_ms", func(p metrics.Params) float64 { return p.Elapsed.Milliseconds() }},
	}
	for _, row := range rows {
		vals := make([]float64, len(order))
		for i, name := range order {
			vals[i] = row.get(params[name])
		}
		s.AddX(row.label, vals...)
	}
	return s, nil
}

func runFig3() (*Series, error) {
	entrants := sevenAlgs()
	s := NewSeries("Figure 3 — 10×10 Paragon, E(s), L=4K", "sources", "ms", labels(entrants)...)
	var xs []string
	var svals []int
	for _, v := range []int{1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		xs = append(xs, fmt.Sprintf("%d", v))
		svals = append(svals, v)
	}
	return sweep(s, entrants, 10, 10, xs, func(m *machine.Machine, e entrant, i int) (float64, error) {
		spec, err := SpecFor(m, dist.Equal(), svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, e.alg, spec, 4096)
	})
}

func runFig4() (*Series, error) {
	entrants := nxFive()
	s := NewSeries("Figure 4 — 10×10 Paragon, Dr(30), L sweep", "msg bytes", "ms", labels(entrants)...)
	var xs []string
	var lvals []int
	for l := 32; l <= 16384; l *= 2 {
		xs = append(xs, fmt.Sprintf("%d", l))
		lvals = append(lvals, l)
	}
	return sweep(s, entrants, 10, 10, xs, func(m *machine.Machine, e entrant, i int) (float64, error) {
		spec, err := SpecFor(m, dist.DiagRight(), 30)
		if err != nil {
			return 0, err
		}
		return MustMillis(m, e.alg, spec, lvals[i])
	})
}

func runFig5() (*Series, error) {
	entrants := nxFive()
	s := NewSeries("Figure 5 — square Paragons p=4..256, Dr(√p), L=1K", "processors", "ms", labels(entrants)...)
	var xs []string
	var sides []int
	for _, side := range []int{2, 4, 6, 8, 10, 12, 14, 16} {
		xs = append(xs, fmt.Sprintf("%d", side*side))
		sides = append(sides, side)
	}
	return fillSeries(s, xs, len(entrants), func(i, j int) (float64, error) {
		side := sides[i]
		m := paragonFor(entrants[j], side, side)
		spec, err := SpecFor(m, dist.DiagRight(), side)
		if err != nil {
			return 0, err
		}
		return MustMillis(m, entrants[j].alg, spec, 1024)
	})
}

func runFig6() (*Series, error) {
	entrants := []entrant{
		{"Br_Lin", core.BrLin(), false},
		{"Br_xy_source", core.BrXYSource(), false},
		{"Br_xy_dim", core.BrXYDim(), false},
	}
	s := NewSeries("Figure 6 — 10×10 Paragon, L=2K, s=30, distribution sweep", "distribution", "ms", labels(entrants)...)
	dists := dist.All()
	var xs []string
	for _, d := range dists {
		xs = append(xs, d.Name())
	}
	return sweep(s, entrants, 10, 10, xs, func(m *machine.Machine, e entrant, i int) (float64, error) {
		spec, err := SpecFor(m, dists[i], 30)
		if err != nil {
			return 0, err
		}
		return MustMillis(m, e.alg, spec, 2048)
	})
}

func runFig7() (*Series, error) {
	entrants := []entrant{
		{"Br_Lin", core.BrLin(), false},
		{"Br_xy_source", core.BrXYSource(), false},
		{"Br_xy_dim", core.BrXYDim(), false},
	}
	s := NewSeries("Figure 7 — 10×10 Paragon, Dr(s), total volume 80K", "sources", "ms", labels(entrants)...)
	const total = 80 * 1024
	var xs []string
	var svals []int
	for _, v := range []int{5, 10, 20, 40, 80} {
		xs = append(xs, fmt.Sprintf("%d", v))
		svals = append(svals, v)
	}
	return sweep(s, entrants, 10, 10, xs, func(m *machine.Machine, e entrant, i int) (float64, error) {
		spec, err := SpecFor(m, dist.DiagRight(), svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, e.alg, spec, total/svals[i])
	})
}

func runFig8() (*Series, error) {
	sources := []int{8, 15, 30}
	order := make([]string, len(sources))
	for i, sv := range sources {
		order[i] = fmt.Sprintf("s=%d", sv)
	}
	s := NewSeries("Figure 8 — p=120 Paragon, E(s), L=4K, Br_Lin across machine dimensions", "dimensions", "ms", order...)
	dims := [][2]int{{2, 60}, {3, 40}, {4, 30}, {5, 24}, {6, 20}, {8, 15}, {10, 12}}
	xs := make([]string, len(dims))
	for i, d := range dims {
		xs[i] = fmt.Sprintf("%dx%d", d[0], d[1])
	}
	return fillSeries(s, xs, len(sources), func(i, j int) (float64, error) {
		m := machine.Paragon(dims[i][0], dims[i][1])
		spec, err := SpecFor(m, dist.Equal(), sources[j])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, core.BrLin(), spec, 4096)
	})
}

// reposGain measures the percentage gain of repositioning: positive when
// Repos_xy_source beats Br_xy_source.
func reposGain(m *machine.Machine, d dist.Distribution, s, msgLen int) (float64, error) {
	spec, err := SpecFor(m, d, s)
	if err != nil {
		return 0, err
	}
	plain, err := MustMillis(m, core.BrXYSource(), spec, msgLen)
	if err != nil {
		return 0, err
	}
	repos, err := MustMillis(m, core.ReposXYSource(), spec, msgLen)
	if err != nil {
		return 0, err
	}
	return (plain - repos) / plain * 100, nil
}

func runFig9() (*Series, error) {
	dists := []dist.Distribution{dist.Equal(), dist.Band(), dist.Cross(), dist.Square()}
	order := make([]string, len(dists))
	for i, d := range dists {
		order[i] = d.Name()
	}
	s := NewSeries("Figure 9 — 16×16 Paragon, L=6K: Repos_xy_source gain over Br_xy_source", "sources", "% gain", order...)
	s.Notes = "positive = repositioning faster"
	svals := []int{16, 32, 50, 64, 96, 128, 160, 192}
	xs := make([]string, len(svals))
	for i, sv := range svals {
		xs[i] = fmt.Sprintf("%d", sv)
	}
	m := machine.Paragon(16, 16)
	return fillSeries(s, xs, len(dists), func(i, j int) (float64, error) {
		return reposGain(m, dists[j], svals[i], 6*1024)
	})
}

func runFig10() (*Series, error) {
	dists := []dist.Distribution{dist.Equal(), dist.Band(), dist.Cross(), dist.Square()}
	order := make([]string, len(dists))
	for i, d := range dists {
		order[i] = d.Name()
	}
	s := NewSeries("Figure 10 — 16×16 Paragon, s=75: Repos_xy_source gain over Br_xy_source", "msg bytes", "% gain", order...)
	s.Notes = "positive = repositioning faster"
	var lvals []int
	var xs []string
	for l := 256; l <= 16384; l *= 2 {
		lvals = append(lvals, l)
		xs = append(xs, fmt.Sprintf("%d", l))
	}
	m := machine.Paragon(16, 16)
	return fillSeries(s, xs, len(dists), func(i, j int) (float64, error) {
		return reposGain(m, dists[j], 75, lvals[i])
	})
}
