//go:build !race

package stpbcast_test

// Allocation budgets per warm TCP session run (TestSessionTCPAllocationBudget):
// 5 % over the least-of-rounds counts, rounded up: 72.1 at 1 KiB and 104
// at 256 KiB, and 7 allocations of 1 440 bytes at 256 KiB when each
// result is released.
const (
	sessionTCPSmallAllocBudget    = 76
	sessionTCPLargeAllocBudget    = 110
	sessionTCPReleasedAllocBudget = 8
	sessionTCPReleasedByteBudget  = 1_520
)
