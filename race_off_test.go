//go:build !race

package stpbcast_test

// Allocation budgets per warm TCP session run (TestSessionTCPAllocationBudget):
// 5 % over the least-of-rounds counts, 156 at 1 KiB and 188 at 256 KiB.
const (
	sessionTCPSmallAllocBudget = 163
	sessionTCPLargeAllocBudget = 197
)
