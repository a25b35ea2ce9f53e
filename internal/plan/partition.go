package plan

import "fmt"

// WorkerRanges splits p ranks into n contiguous near-equal ranges
// [lo,hi), the first p%n ranges one rank larger. It is the canonical
// rank→worker assignment of a cluster: contiguous ranges keep a
// schedule's neighbor-heavy traffic (rows of the mesh) inside one
// process.
func WorkerRanges(p, n int) ([][2]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("plan: non-positive worker count %d", n)
	}
	if p < n {
		return nil, fmt.Errorf("plan: %d workers for %d ranks (at least one rank per worker)", n, p)
	}
	ranges := make([][2]int, n)
	base, extra := p/n, p%n
	lo := 0
	for w := 0; w < n; w++ {
		hi := lo + base
		if w < extra {
			hi++
		}
		ranges[w] = [2]int{lo, hi}
		lo = hi
	}
	return ranges, nil
}
