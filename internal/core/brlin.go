package core

import (
	"repro/internal/topology"
)

// linear is the (k+1)-section broadcast over the whole machine viewed as
// a linear array in the spec's order (snake-like row-major by default).
func linear(k int, phase string, spec Spec) sectioning {
	mesh := topology.MustMesh2D(spec.Rows, spec.Cols)
	return sectioning{k: k, phase: phase, passes: []pass{{
		n:  spec.P(),
		at: func(_, pos int) int { return spec.Indexing.RankToNode(mesh, pos) },
	}}}
}

// BrLin returns Algorithm Br_Lin: recursive halving over the whole
// machine viewed as a linear array.
func BrLin() Algorithm {
	return sectioned("Br_Lin", func(spec Spec) sectioning { return linear(1, "halving", spec) })
}
