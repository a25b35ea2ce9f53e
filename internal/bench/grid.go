package bench

import "repro/internal/par"

// fillSeries computes the len(xs) × ncurves grid of figure cells and
// assembles it into s in x order. Cells are independent — a figure builds
// its machines once and its cells share them, read-only during a replay,
// while each replay runs on a network and an engine of its own — so they
// fan out across the shared bounded worker pool (par.Limit() at a time);
// the vals slice is indexed by cell, making the assembled series
// byte-identical to a serial run regardless of completion order. cell(i,
// j) returns the value of curve j at x position i and must not share
// mutable state across calls.
func fillSeries(s *Series, xs []string, ncurves int, cell func(i, j int) (float64, error)) (*Series, error) {
	vals := make([]float64, len(xs)*ncurves)
	err := par.ForEach(len(vals), func(k int) error {
		v, err := cell(k/ncurves, k%ncurves)
		if err != nil {
			return err
		}
		vals[k] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		s.AddX(x, vals[i*ncurves:(i+1)*ncurves]...)
	}
	return s, nil
}
