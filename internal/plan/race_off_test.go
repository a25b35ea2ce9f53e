//go:build !race

package plan

// coldDecideAllocBudget and coldDecideKBBudget are 5 % over the 1 242
// allocations and 2 551 kB one cold sweep costs
// (TestColdDecideAllocationBudget).
const (
	coldDecideAllocBudget = 1305
	coldDecideKBBudget    = 2679
)
