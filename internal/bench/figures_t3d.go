package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
)

// t3dDists is the distribution set of the T3D figures; the paper plots a
// handful of representative patterns plus its random-distribution
// conjecture.
func t3dDists() []dist.Distribution {
	return []dist.Distribution{dist.Equal(), dist.Column(), dist.DiagRight(), dist.Square(), dist.Random(7)}
}

func init() {
	register(Experiment{
		ID:    "fig11a",
		Title: "T3D MPI_AllGather, machine sweep p=16..256, s=32, total volume 128K",
		Paper: "Distribution matters little on small machines; on larger machines the equal distribution wins by ~28%.",
		Run:   runFig11a,
	})
	register(Experiment{
		ID:    "fig11b",
		Title: "T3D MPI_AllGather, p=128, L=16K, s=4..128, distribution sweep",
		Paper: "Equal distribution consistently best; AllGather deteriorates as s approaches p.",
		Run:   runFig11b,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "T3D MPI_AllGather, p=128, total volume fixed 128K, s=4..128",
		Paper: "More sources for the same volume is faster; the distribution matters mostly for s ≤ p/4, equal tends to win.",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13a",
		Title: "T3D p=128, L=4K, E(s), s=5..128: MPI_AllGather vs MPI_Alltoall vs Br_Lin",
		Paper: "MPI_Alltoall best (bandwidth-rich torus, no wait/combining); Br_Lin hurt by wait and combining cost; AllGather congested at P0.",
		Run:   runFig13a,
	})
	register(Experiment{
		ID:    "fig13b",
		Title: "T3D p=128, L=4K, s=40, distribution sweep: three algorithms",
		Paper: "MPI_Alltoall performs well on every distribution; no ideal distribution identifiable on the T3D.",
		Run:   runFig13b,
	})
}

func runFig11a() (*Series, error) {
	dists := t3dDists()
	order := make([]string, len(dists))
	for i, d := range dists {
		order[i] = d.Name()
	}
	s := NewSeries("Figure 11a — T3D MPI_AllGather, s=32, total 128K, machine sweep", "processors", "ms", order...)
	const total = 128 * 1024
	pvals := []int{32, 64, 128, 256}
	xs := make([]string, len(pvals))
	for i, p := range pvals {
		xs[i] = fmt.Sprintf("%d", p)
	}
	return fillSeries(s, xs, len(dists), func(i, j int) (float64, error) {
		m := machine.T3D(pvals[i])
		spec, err := SpecFor(m, dists[j], 32)
		if err != nil {
			return 0, err
		}
		return MustMillis(m, core.RDAllGather(), spec, total/32)
	})
}

func runFig11b() (*Series, error) {
	dists := t3dDists()
	order := make([]string, len(dists))
	for i, d := range dists {
		order[i] = d.Name()
	}
	s := NewSeries("Figure 11b — T3D MPI_AllGather, p=128, L=16K, source sweep", "sources", "ms", order...)
	svals := []int{4, 8, 16, 32, 64, 128}
	xs := make([]string, len(svals))
	for i, sv := range svals {
		xs[i] = fmt.Sprintf("%d", sv)
	}
	m := machine.T3D(128)
	return fillSeries(s, xs, len(dists), func(i, j int) (float64, error) {
		spec, err := SpecFor(m, dists[j], svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, core.RDAllGather(), spec, 16*1024)
	})
}

func runFig12() (*Series, error) {
	dists := t3dDists()
	order := make([]string, len(dists))
	for i, d := range dists {
		order[i] = d.Name()
	}
	s := NewSeries("Figure 12 — T3D MPI_AllGather, p=128, total volume 128K, source sweep", "sources", "ms", order...)
	const total = 128 * 1024
	svals := []int{4, 8, 16, 32, 64, 128}
	xs := make([]string, len(svals))
	for i, sv := range svals {
		xs[i] = fmt.Sprintf("%d", sv)
	}
	m := machine.T3D(128)
	return fillSeries(s, xs, len(dists), func(i, j int) (float64, error) {
		spec, err := SpecFor(m, dists[j], svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, core.RDAllGather(), spec, total/svals[i])
	})
}

// t3dThree is the algorithm set of Figure 13. MPI_AllGather is modelled
// as recursive doubling (see core.RDAllGather); Gather_Bcast shows what
// the paper's textual description of MPI_AllGather (the 2-Step pattern)
// would cost instead.
func t3dThree() []struct {
	label string
	alg   core.Algorithm
} {
	return []struct {
		label string
		alg   core.Algorithm
	}{
		{"MPI_AllGather", core.RDAllGather()},
		{"MPI_Alltoall", core.PersAlltoAll()},
		{"Br_Lin", core.BrLin()},
		{"Gather_Bcast", core.TwoStep()},
	}
}

func runFig13a() (*Series, error) {
	algs := t3dThree()
	order := make([]string, len(algs))
	for i, a := range algs {
		order[i] = a.label
	}
	s := NewSeries("Figure 13a — T3D p=128, L=4K, E(s), source sweep", "sources", "ms", order...)
	svals := []int{5, 10, 20, 40, 64, 96, 128}
	xs := make([]string, len(svals))
	for i, sv := range svals {
		xs[i] = fmt.Sprintf("%d", sv)
	}
	m := machine.T3D(128)
	return fillSeries(s, xs, len(algs), func(i, j int) (float64, error) {
		spec, err := SpecFor(m, dist.Equal(), svals[i])
		if err != nil {
			return 0, err
		}
		return MustMillis(m, algs[j].alg, spec, 4096)
	})
}

func runFig13b() (*Series, error) {
	algs := t3dThree()
	order := make([]string, len(algs))
	for i, a := range algs {
		order[i] = a.label
	}
	s := NewSeries("Figure 13b — T3D p=128, L=4K, s=40, distribution sweep", "distribution", "ms", order...)
	dists := dist.All()
	xs := make([]string, len(dists))
	for i, d := range dists {
		xs[i] = d.Name()
	}
	m := machine.T3D(128)
	return fillSeries(s, xs, len(algs), func(i, j int) (float64, error) {
		spec, err := SpecFor(m, dists[i], 40)
		if err != nil {
			return 0, err
		}
		return MustMillis(m, algs[j].alg, spec, 4096)
	})
}
