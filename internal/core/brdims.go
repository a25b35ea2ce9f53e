package core

import (
	"fmt"

	"repro/internal/comm"
)

// brDims generalizes Br_xy to a d-dimensional logical grid: Br_Lin runs
// within every line of one dimension after another, in a caller-chosen
// order. With extents {r, c} this is exactly the Br_xy family; with three
// extents it is the natural algorithm for the T3D's logical 3-D grid —
// the obvious extension the paper leaves open because the T3D's placement
// was out of user control (our machine model makes it expressible).
//
// Ranks are mixed-radix over the extents with the last dimension varying
// fastest (the row-major generalization): for extents {e0, e1, e2},
// rank = (x0·e1 + x1)·e2 + x2. A "line along dimension d" holds every
// coordinate fixed except x_d. Before dimension d is processed, a
// processor holds messages iff some source matches its coordinates on
// every still-unprocessed dimension — the multi-dimensional form of
// Br_xy's non-empty-row rule.
type brDims struct {
	extents []int
	order   []int
}

// BrDims returns the dimension-by-dimension broadcast over a logical grid
// with the given extents, processing dimensions in the given order (a
// permutation of 0..len(extents)-1). The product of extents must equal
// the machine size; spec.Rows×spec.Cols is ignored beyond that check.
func BrDims(extents, order []int) Algorithm {
	return brDims{extents: append([]int(nil), extents...), order: append([]int(nil), order...)}
}

func (a brDims) Name() string { return fmt.Sprintf("Br_dims%v", a.extents) }

func (a brDims) validate(p int) error {
	if len(a.extents) == 0 {
		return fmt.Errorf("core: Br_dims with no extents")
	}
	prod := 1
	for _, e := range a.extents {
		if e <= 0 {
			return fmt.Errorf("core: Br_dims extent %d", e)
		}
		prod *= e
	}
	if prod != p {
		return fmt.Errorf("core: Br_dims extents %v cover %d of %d processors", a.extents, prod, p)
	}
	if len(a.order) != len(a.extents) {
		return fmt.Errorf("core: Br_dims order %v for %d dimensions", a.order, len(a.extents))
	}
	seen := make([]bool, len(a.extents))
	for _, d := range a.order {
		if d < 0 || d >= len(a.extents) || seen[d] {
			return fmt.Errorf("core: Br_dims order %v is not a permutation", a.order)
		}
		seen[d] = true
	}
	return nil
}

func (a brDims) sections(spec Spec) sectioning {
	if err := a.validate(spec.P()); err != nil {
		panic(err)
	}
	return a.passes()
}

func (a brDims) script(spec Spec) comm.Script { return a.sections(spec).script(spec) }

func (a brDims) Bind(spec Spec) Algorithm { return bindScript(a, spec) }

func (a brDims) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return runScript(a, c, spec, mine)
}

// passes is the halving along every line of one dimension after another:
// the lines of a dimension are numbered by their processor with x_dim = 0,
// in rank order.
func (a brDims) passes() sectioning {
	s := sectioning{k: 1, phase: "halving", passes: make([]pass, 0, len(a.order))}
	for _, dim := range a.order {
		stride := 1
		for _, e := range a.extents[dim+1:] {
			stride *= e
		}
		n := a.extents[dim]
		s.passes = append(s.passes, pass{n: n, at: func(line, pos int) int {
			return line/stride*stride*n + line%stride + pos*stride
		}})
	}
	return s
}
