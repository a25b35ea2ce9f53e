//go:build race

package bench

// figurePassAllocBudget and figurePassKBBudget under the race detector:
// 3 441–3 455 allocations and 778–780 kB per pass over seven runs, each
// budget 5 % over the largest.
const (
	figurePassAllocBudget = 3628
	figurePassKBBudget    = 819
)
