//go:build race

package bench

// figurePassAllocBudget and figurePassKBBudget under the race detector:
// 2 747–2 758 allocations and 539–541 kB per pass over eight runs, each
// budget 5 % over the largest.
const (
	figurePassAllocBudget = 2896
	figurePassKBBudget    = 569
)
