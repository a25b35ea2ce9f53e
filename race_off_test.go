//go:build !race

package stpbcast_test

// Allocation budgets per warm TCP session run (TestSessionTCPAllocationBudget):
// 5 % over the least-of-rounds counts, 124 at 1 KiB and 158 at 256 KiB,
// and 60 allocations of 9 104 bytes at 256 KiB when each result is
// released.
const (
	sessionTCPSmallAllocBudget    = 130
	sessionTCPLargeAllocBudget    = 166
	sessionTCPReleasedAllocBudget = 63
	sessionTCPReleasedByteBudget  = 9_600
)
