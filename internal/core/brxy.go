package core

import (
	"repro/internal/comm"
)

// maxPerLine returns the maximum number of sources in any row (max_r) and
// any column (max_c) of the spec's mesh.
func maxPerLine(spec Spec) (maxR, maxC int) {
	perRow := make([]int, spec.Rows)
	perCol := make([]int, spec.Cols)
	for _, src := range spec.Sources {
		perRow[src/spec.Cols]++
		perCol[src%spec.Cols]++
	}
	for _, v := range perRow {
		if v > maxR {
			maxR = v
		}
	}
	for _, v := range perCol {
		if v > maxC {
			maxC = v
		}
	}
	return maxR, maxC
}

// brXY runs Br_Lin one dimension at a time: first within every line of the
// chosen first dimension, then within every line of the other. After the
// first phase every processor of a non-empty first-dimension line holds
// that line's combined bundle; the second phase broadcasts the per-line
// bundles across the other dimension, completing the s-to-p broadcast. It
// is Br_dims on the r×c grid with the order picked from the spec.
type brXY struct {
	name string
	// rowsFirst decides from the spec whether the lines within rows are
	// processed first.
	rowsFirst func(Spec) bool
}

func (a brXY) Name() string { return a.name }

func (a brXY) sections(spec Spec) sectioning {
	order := []int{0, 1}
	if a.rowsFirst(spec) {
		order = []int{1, 0} // a row's line runs along the column coordinate
	}
	return brDims{extents: []int{spec.Rows, spec.Cols}, order: order}.passes()
}

func (a brXY) script(spec Spec) comm.Script { return a.sections(spec).script(spec) }

func (a brXY) Bind(spec Spec) Algorithm { return bindScript(a, spec) }

func (a brXY) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return runScript(a, c, spec, mine)
}

// BrXYSource returns Algorithm Br_xy_source: the first dimension is the
// one whose lines contain fewer sources (rows first iff max_r < max_c), so
// the early iterations move small messages and grow the holder set fast.
func BrXYSource() Algorithm {
	return brXY{
		name: "Br_xy_source",
		rowsFirst: func(spec Spec) bool {
			maxR, maxC := maxPerLine(spec)
			return maxR < maxC
		},
	}
}

// BrXYDim returns Algorithm Br_xy_dim: the first dimension is chosen from
// the machine dimensions only (rows first iff r ≥ c), ignoring the source
// positions — the paper's distribution-oblivious comparison point.
func BrXYDim() Algorithm {
	return brXY{
		name:      "Br_xy_dim",
		rowsFirst: func(spec Spec) bool { return spec.Rows >= spec.Cols },
	}
}
