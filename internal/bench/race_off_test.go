//go:build !race

package bench

// figurePassAllocBudget and figurePassKBBudget leave 5 % over what a
// pass costs (TestFigurePassAllocationBudget): 2 736 allocations and
// 538 kB.
const (
	figurePassAllocBudget = 2873
	figurePassKBBudget    = 565
)
