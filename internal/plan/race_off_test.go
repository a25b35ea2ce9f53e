//go:build !race

package plan

// coldDecideAllocBudget and coldDecideKBBudget are 5 % over the 1 068
// allocations and 271 kB one cold sweep costs
// (TestColdDecideAllocationBudget).
const (
	coldDecideAllocBudget = 1122
	coldDecideKBBudget    = 285
)
