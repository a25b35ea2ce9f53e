package core

import "slices"

// maxPerLine returns the maximum number of sources in any row (max_r) and
// any column (max_c) of the spec's mesh.
func maxPerLine(spec Spec) (maxR, maxC int) {
	perRow := make([]int, spec.Rows)
	perCol := make([]int, spec.Cols)
	for _, src := range spec.Sources {
		perRow[src/spec.Cols]++
		perCol[src%spec.Cols]++
	}
	return slices.Max(perRow), slices.Max(perCol)
}

// brXY runs Br_Lin one dimension at a time: first within every line of the
// chosen first dimension, then within every line of the other. After the
// first phase every processor of a non-empty first-dimension line holds
// that line's combined bundle; the second phase broadcasts the per-line
// bundles across the other dimension, completing the s-to-p broadcast. It
// is Br_dims on the r×c grid with the order rowsFirst picks from the spec.
func brXY(name string, rowsFirst func(Spec) bool) Algorithm {
	return sectioned(name, func(spec Spec) sectioning {
		order := []int{0, 1}
		if rowsFirst(spec) {
			order = []int{1, 0} // a row's line runs along the column coordinate
		}
		return brDims{extents: []int{spec.Rows, spec.Cols}, order: order}.passes()
	})
}

// BrXYSource returns Algorithm Br_xy_source: the first dimension is the
// one whose lines contain fewer sources (rows first iff max_r < max_c), so
// the early iterations move small messages and grow the holder set fast.
func BrXYSource() Algorithm {
	return brXY("Br_xy_source", func(spec Spec) bool {
		maxR, maxC := maxPerLine(spec)
		return maxR < maxC
	})
}

// BrXYDim returns Algorithm Br_xy_dim: the first dimension is chosen from
// the machine dimensions only (rows first iff r ≥ c), ignoring the source
// positions — the paper's distribution-oblivious comparison point.
func BrXYDim() Algorithm {
	return brXY("Br_xy_dim", func(spec Spec) bool { return spec.Rows >= spec.Cols })
}
