//go:build !race

package plan

// coldDecideAllocBudget is 5 % over the 1 242 allocations one cold sweep
// costs (TestColdDecideAllocationBudget).
const coldDecideAllocBudget = 1305
