//go:build !race

package plan

// coldDecideAllocBudget and coldDecideKBBudget are 5 % over the 895
// allocations and 217 kB one cold sweep costs
// (TestColdDecideAllocationBudget).
const (
	coldDecideAllocBudget = 940
	coldDecideKBBudget    = 228
)
