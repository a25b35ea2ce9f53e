//go:build !race

package stpbcast_test

// Allocation budgets per warm TCP session run (TestSessionTCPAllocationBudget):
// 5 % over the least-of-rounds counts, 142 at 1 KiB and 176 at 256 KiB.
const (
	sessionTCPSmallAllocBudget = 149
	sessionTCPLargeAllocBudget = 185
)
