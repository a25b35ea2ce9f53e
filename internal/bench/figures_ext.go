package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/par"
)

func init() {
	register(Experiment{
		ID:    "ablation-indep",
		Title: "10×10 Paragon, E(s), L=2K: uncoordinated independent broadcasts vs Br_Lin vs PersAlltoAll",
		Paper: "Section 2: letting every source run its own 1-to-p broadcast without coordination 'leads to poor performance due to arising congestion and the large number of messages'.",
		Run:   runAblationIndep,
	})
	register(Experiment{
		ID:    "ablation-discovery",
		Title: "16×16 Paragon, Cr(s): cost of discovering the source positions before broadcasting",
		Paper: "Section 1 assumes every processor knows the source positions; this measures the log p flag-exchange needed when they do not.",
		Run:   runAblationDiscovery,
	})
	register(Experiment{
		ID:    "ablation-varlen",
		Title: "10×10 Paragon, Dr(20), total 80K: uniform vs skewed vs extreme per-source message lengths",
		Paper: "Section 5: 'using different length messages did not influence the performance of the algorithms significantly' — holds for moderate skew; the extreme one-heavy shape degenerates toward Figure 7's s=1 point.",
		Run:   runAblationVarlen,
	})
	register(Experiment{
		ID:    "ablation-hypercube",
		Title: "p=64: Br_Lin and PersAlltoAll on an 8×8 mesh vs a 6-cube (equal distribution, L=4K)",
		Paper: "Beyond the paper: Br_Lin's halving partners are one hop on a hypercube (the dimension-exchange pattern), removing the mesh's long-haul contention.",
		Run:   runAblationHypercube,
	})
}

func runAblationIndep() (*Series, error) {
	algs := []struct {
		label string
		alg   core.Algorithm
	}{
		{"Indep_1toP", core.Indep1toP()},
		{"Br_Lin", core.BrLin()},
		{"PersAlltoAll", core.PersAlltoAll()},
	}
	order := make([]string, len(algs))
	for i, a := range algs {
		order[i] = a.label
	}
	s := NewSeries("Ablation — uncoordinated broadcasts (10×10, E(s), L=2K)", "sources", "ms", order...)
	svals := []int{5, 15, 30, 60, 100}
	xs := make([]string, len(svals))
	for i, sv := range svals {
		xs[i] = fmt.Sprintf("%d", sv)
	}
	return fillSeries(s, xs, len(algs), func(i, j int) (float64, error) {
		m := machine.Paragon(10, 10)
		spec, err := SpecFor(m, dist.Equal(), svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, algs[j].alg, spec, 2048)
	})
}

func runAblationDiscovery() (*Series, error) {
	s := NewSeries("Ablation — source discovery overhead (16×16, Cr(s), L=4K)", "sources", "ms",
		"Br_xy_source", "Discover+Br_xy_source", "overhead %")
	svals := []int{8, 32, 96, 192}
	rows := make([][2]float64, len(svals))
	if err := par.ForEach(len(svals), func(i int) error {
		m := machine.Paragon(16, 16)
		spec, err := SpecFor(m, dist.Cross(), svals[i])
		if err != nil {
			return err
		}
		plain, err := MustMillis(m, core.BrXYSource(), spec, 4096)
		if err != nil {
			return err
		}
		disc, err := MustMillis(m, core.WithDiscovery(core.BrXYSource()), spec, 4096)
		if err != nil {
			return err
		}
		rows[i] = [2]float64{plain, disc}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, sv := range svals {
		plain, disc := rows[i][0], rows[i][1]
		s.AddX(fmt.Sprintf("%d", sv), plain, disc, (disc-plain)/plain*100)
	}
	return s, nil
}

func runAblationVarlen() (*Series, error) {
	algs := []struct {
		label string
		alg   core.Algorithm
	}{
		{"Br_Lin", core.BrLin()},
		{"Br_xy_source", core.BrXYSource()},
	}
	const total = 80 * 1024
	const s = 20
	m := machine.Paragon(10, 10)
	spec, err := SpecFor(m, dist.DiagRight(), s)
	if err != nil {
		return nil, err
	}
	shapes := []struct {
		label   string
		lengths func() map[int]int
	}{
		{"uniform", func() map[int]int {
			out := map[int]int{}
			for _, r := range spec.Sources {
				out[r] = total / s
			}
			return out
		}},
		{"skewed-2x", func() map[int]int {
			// Half the sources carry 2/3 of the volume.
			out := map[int]int{}
			for i, r := range spec.Sources {
				if i%2 == 0 {
					out[r] = total * 2 / (3 * s / 2)
				} else {
					out[r] = total / (3 * s / 2)
				}
			}
			return out
		}},
		{"one-heavy", func() map[int]int {
			// One source carries 61K, the rest split the remainder.
			out := map[int]int{}
			rest := (total - 61*1024) / (s - 1)
			for i, r := range spec.Sources {
				if i == 0 {
					out[r] = 61 * 1024
				} else {
					out[r] = rest
				}
			}
			return out
		}},
	}
	order := make([]string, len(algs))
	for i, a := range algs {
		order[i] = a.label
	}
	series := NewSeries("Ablation — per-source message lengths (10×10, Dr(20), total 80K)", "length shape", "ms", order...)
	xs := make([]string, len(shapes))
	for i, sh := range shapes {
		xs[i] = sh.label
	}
	return fillSeries(series, xs, len(algs), func(i, j int) (float64, error) {
		lengths := shapes[i].lengths()
		t, err := m.Elapsed(algs[j].alg, spec, func(r int) int { return lengths[r] })
		if err != nil {
			return 0, err
		}
		return t.Milliseconds(), nil
	})
}

func runAblationHypercube() (*Series, error) {
	algs := []struct {
		label string
		alg   core.Algorithm
	}{
		{"Br_Lin", core.BrLin()},
		{"PersAlltoAll", core.PersAlltoAll()},
	}
	machines := []struct {
		label string
		m     *machine.Machine
	}{
		{"mesh8x8", machine.Paragon(8, 8)},
		{"6-cube", machine.HypercubeNX(6)},
	}
	order := []string{}
	for _, a := range algs {
		for _, mm := range machines {
			order = append(order, a.label+"/"+mm.label)
		}
	}
	s := NewSeries("Ablation — mesh vs hypercube at p=64 (E(s), L=4K)", "sources", "ms", order...)
	svals := []int{8, 16, 32, 64}
	xs := make([]string, len(svals))
	for i, sv := range svals {
		xs[i] = fmt.Sprintf("%d", sv)
	}
	return fillSeries(s, xs, len(order), func(i, j int) (float64, error) {
		a, mm := algs[j/len(machines)], machines[j%len(machines)]
		spec, err := SpecFor(mm.m, dist.Equal(), svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(mm.m, a.alg, spec, 4096)
	})
}

func init() {
	register(Experiment{
		ID:    "ablation-dims3d",
		Title: "T3D p=128, L=4K, E(s): Br_Lin vs 2-D vs 3-D dimension-by-dimension broadcast",
		Paper: "Beyond the paper: the d-dimensional generalization of Br_xy the paper leaves open (it avoided topology-tailored algorithms on the T3D because placement was out of user control).",
		Run:   runAblationDims3D,
	})
	register(Experiment{
		ID:    "ablation-calibration",
		Title: "10×10 Paragon, E(50), L=4K: software-cost calibration scaled ×0.5/×1/×2",
		Paper: "Robustness check: the paper's qualitative ranking (Br_* < PersAlltoAll < 2-Step) must not depend on the exact calibration constants.",
		Run:   runAblationCalibration,
	})
}

func runAblationDims3D() (*Series, error) {
	x, y, z := machine.TorusDims(128)
	algs := []struct {
		label string
		alg   core.Algorithm
	}{
		{"Br_Lin", core.BrLin()},
		{"Br_dims2D", core.BrDims([]int{8, 16}, []int{1, 0})},
		{"Br_dims3D", core.BrDims([]int{x, y, z}, []int{2, 1, 0})},
		{"MPI_Alltoall", core.PersAlltoAll()},
	}
	order := make([]string, len(algs))
	for i, a := range algs {
		order[i] = a.label
	}
	s := NewSeries("Ablation — dimension-by-dimension broadcast on the T3D (p=128, E(s), L=4K)", "sources", "ms", order...)
	svals := []int{10, 40, 96, 128}
	xs := make([]string, len(svals))
	for i, sv := range svals {
		xs[i] = fmt.Sprintf("%d", sv)
	}
	return fillSeries(s, xs, len(algs), func(i, j int) (float64, error) {
		m := machine.T3D(128)
		spec, err := SpecFor(m, dist.Equal(), svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, algs[j].alg, spec, 4096)
	})
}

func runAblationCalibration() (*Series, error) {
	algs := []struct {
		label string
		alg   core.Algorithm
	}{
		{"Br_xy_source", core.BrXYSource()},
		{"PersAlltoAll", core.PersAlltoAll()},
		{"2-Step", core.TwoStep()},
	}
	order := make([]string, len(algs))
	for i, a := range algs {
		order[i] = a.label
	}
	s := NewSeries("Ablation — calibration robustness (10×10, E(50), L=4K)", "cost scale", "ms", order...)
	scales := []float64{0.5, 1, 2}
	xs := make([]string, len(scales))
	for i, scale := range scales {
		xs[i] = fmt.Sprintf("x%.1f", scale)
	}
	return fillSeries(s, xs, len(algs), func(i, j int) (float64, error) {
		// Each cell builds (and scales) its own machine: Cfg is mutated.
		m := machine.Paragon(10, 10)
		m.Cfg = m.Cfg.Scale(scales[i])
		spec, err := SpecFor(m, dist.Equal(), 50)
		if err != nil {
			return 0, err
		}
		return MustMillis(m, algs[j].alg, spec, 4096)
	})
}

func init() {
	register(Experiment{
		ID:    "ablation-adaptive",
		Title: "16×16 Paragon, L=6K, s=64: adaptive repositioning vs always vs never, all distributions",
		Paper: "Section 3 note: 'Our current implementations do not check whether the initial distribution is close to an ideal distribution and always reposition.' The adaptive variant skips the permutation when the growth-efficiency gain is small, tracking the better of the two.",
		Run:   runAblationAdaptive,
	})
}

func runAblationAdaptive() (*Series, error) {
	algs := []struct {
		label string
		alg   core.Algorithm
	}{
		{"never", core.BrXYSource()},
		{"always", core.ReposXYSource()},
		{"adaptive", core.ReposAdaptive(core.BrXYSource(), 0.1)},
	}
	order := make([]string, len(algs))
	for i, a := range algs {
		order[i] = a.label
	}
	s := NewSeries("Ablation — adaptive repositioning (16×16, L=6K, s=64)", "distribution", "ms", order...)
	dists := dist.All()
	xs := make([]string, len(dists))
	for i, d := range dists {
		xs[i] = d.Name()
	}
	return fillSeries(s, xs, len(algs), func(i, j int) (float64, error) {
		m := machine.Paragon(16, 16)
		spec, err := SpecFor(m, dists[i], 64)
		if err != nil {
			return 0, err
		}
		return MustMillis(m, algs[j].alg, spec, 6*1024)
	})
}
