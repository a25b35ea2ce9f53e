//go:build !race

package plan

// coldDecideAllocBudget and coldDecideKBBudget are 5 % over the 1 242
// allocations and 1 683 kB one cold sweep costs
// (TestColdDecideAllocationBudget).
const (
	coldDecideAllocBudget = 1305
	coldDecideKBBudget    = 1768
)
