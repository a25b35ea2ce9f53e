//go:build !race

package bench

// figurePassAllocBudget and figurePassKBBudget leave 5 % over what a
// pass costs (TestFigurePassAllocationBudget): 3 429–3 430 allocations
// and 776 kB.
const (
	figurePassAllocBudget = 3602
	figurePassKBBudget    = 815
)
