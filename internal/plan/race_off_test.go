//go:build !race

package plan

// coldDecideAllocBudget is 5 % over the 1 409 allocations one cold sweep
// costs (TestColdDecideAllocationBudget).
const coldDecideAllocBudget = 1480
