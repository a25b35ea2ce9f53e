package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/plan"
)

func init() {
	register(Experiment{
		ID:    "figAuto",
		Title: "Auto planner vs best fixed algorithm vs always-Repos_xy_source, full distribution grid on 10×10 Paragon and 256-PE T3D",
		Paper: "Beyond the paper: Section 5's conclusion is that no single algorithm wins everywhere; the planner operationalizes the paper's decision surface and must track the per-cell best within 10%.",
		Run:   runFigAuto,
	})
}

// runFigAuto sweeps every (distribution, s, L) cell on the two reference
// machines and records three curves: the planner's choice, the best fixed
// algorithm (min over the registry), and the fixed policy of always
// running Repos_xy_source.
func runFigAuto() (*Series, error) {
	grid := []struct {
		tag string
		m   *machine.Machine
	}{
		{"P", machine.Paragon(10, 10)},
		{"T", machine.T3D(256)},
	}
	s := NewSeries("Auto planner vs fixed policies (P=Paragon 10×10, T=T3D 256)",
		"machine/dist/s/L", "ms", "Auto", "best-fixed", "Repos_xy_source")
	type cell struct {
		g struct {
			tag string
			m   *machine.Machine
		}
		d  dist.Distribution
		sv int
		l  int
	}
	var cellsIn []cell
	for _, g := range grid {
		for _, d := range dist.All() {
			for _, sv := range []int{10, 64} {
				for _, l := range []int{1024, 16384} {
					cellsIn = append(cellsIn, cell{g: g, d: d, sv: sv, l: l})
				}
			}
		}
	}
	rows := make([][3]float64, len(cellsIn))
	if err := par.ForEach(len(cellsIn), func(k int) error {
		c := cellsIn[k]
		spec, err := SpecFor(c.g.m, c.d, c.sv)
		if err != nil {
			return err
		}
		// A planner that decides once per cell has nothing to cache.
		dec, err := plan.New(plan.Options{}).Decide(context.Background(), c.g.m, plan.Request{
			Spec: spec, MsgLen: c.l, DistName: c.d.Name(),
		})
		if err != nil {
			return err
		}
		// The always-Repos_xy_source column is the registry entry's
		// replay, which the best-fixed loop has already made.
		best, rv := math.Inf(1), 0.0
		for _, a := range core.Registry() {
			v, err := MustMillis(c.g.m, a, spec, c.l)
			if err != nil {
				return err
			}
			best = min(best, v)
			if a.Name() == "Repos_xy_source" {
				rv = v
			}
		}
		rows[k] = [3]float64{dec.ElapsedMs, best, rv}
		return nil
	}); err != nil {
		return nil, err
	}
	for k, c := range cellsIn {
		s.AddX(fmt.Sprintf("%s/%s/%d/%dK", c.g.tag, c.d.Name(), c.sv, c.l/1024),
			rows[k][0], rows[k][1], rows[k][2])
	}
	return s, nil
}
