//go:build !race

package stpbcast_test

// Allocation budgets per warm TCP session run (TestSessionTCPAllocationBudget):
// 5 % over the least-of-rounds counts, rounded up: 69.1 at 1 KiB and 100.6
// at 256 KiB, and 4 allocations of 560 bytes at 256 KiB when each result
// is released.
const (
	sessionTCPSmallAllocBudget    = 73
	sessionTCPLargeAllocBudget    = 106
	sessionTCPReleasedAllocBudget = 5
	sessionTCPReleasedByteBudget  = 590
)
