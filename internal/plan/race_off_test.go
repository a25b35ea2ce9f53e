//go:build !race

package plan

// coldDecideAllocBudget and coldDecideKBBudget are 5 % over the 1 172–
// 1 173 allocations and 429 kB one cold sweep costs
// (TestColdDecideAllocationBudget).
const (
	coldDecideAllocBudget = 1232
	coldDecideKBBudget    = 451
)
