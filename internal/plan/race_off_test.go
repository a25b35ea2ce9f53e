//go:build !race

package plan

// coldDecideAllocBudget and coldDecideKBBudget are 5 % over the 1 226
// allocations and 1 680 kB one cold sweep costs
// (TestColdDecideAllocationBudget).
const (
	coldDecideAllocBudget = 1288
	coldDecideKBBudget    = 1764
)
