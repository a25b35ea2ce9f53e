package core

import (
	"repro/internal/comm"
	"repro/internal/topology"
)

// linear compiles the (k+1)-section broadcast over the whole machine
// viewed as a linear array in the spec's order (snake-like row-major by
// default).
func linear(k int, phase string, spec Spec) body {
	mesh := topology.MustMesh2D(spec.Rows, spec.Cols)
	iters := lineIters(k, spec.P())
	cp := compile(spec, k, iters)
	cp.line(k, 0, spec.P(), func(pos int) int { return spec.Indexing.RankToNode(mesh, pos) })
	return cp.body(phase, iters, spec.S())
}

// brLin is Algorithm Br_Lin: recursive halving over the whole machine
// viewed as a linear array.
type brLin struct{}

// BrLin returns Algorithm Br_Lin.
func BrLin() Algorithm { return brLin{} }

func (brLin) Name() string { return "Br_Lin" }

func (a brLin) Bind(spec Spec) Algorithm {
	return bind(a, spec, func() body { return linear(1, "halving", spec) })
}

func (a brLin) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return a.Bind(spec).Run(c, spec, mine)
}
