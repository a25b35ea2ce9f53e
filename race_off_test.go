//go:build !race

package stpbcast_test

// Allocation budgets per warm TCP session run (TestSessionTCPAllocationBudget):
// 5 % over the least-of-rounds counts, 124 at 1 KiB and 158 at 256 KiB.
const (
	sessionTCPSmallAllocBudget = 130
	sessionTCPLargeAllocBudget = 166
)
