package core

import (
	"repro/internal/comm"
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

// brLin is Algorithm Br_Lin: recursive halving over the whole machine
// viewed as a linear array.
type brLin struct{}

// BrLin returns Algorithm Br_Lin.
func BrLin() Algorithm { return brLin{} }

func (brLin) Name() string { return "Br_Lin" }

func (brLin) sections(spec Spec) sectioning { return linear(1, "halving", spec) }

func (a brLin) script(spec Spec) comm.Script { return a.sections(spec).script(spec) }

func (a brLin) Bind(spec Spec) Algorithm { return bindScript(a, spec) }

func (a brLin) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return runScript(a, c, spec, mine)
}
