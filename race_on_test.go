//go:build race

package stpbcast_test

// Allocation budgets per warm TCP session run under the race detector,
// whose sync.Pool drops a random quarter of what is put back, so the
// least-of-rounds count itself varies: 114.6–119.2 at 1 KiB and
// 140.4–150.0 at 256 KiB over eight measurements, and 45.3–54.3
// allocations of at most 5 170 bytes at 256 KiB when each result is
// released. 5 % over the largest, rounded up.
const (
	sessionTCPSmallAllocBudget    = 126
	sessionTCPLargeAllocBudget    = 158
	sessionTCPReleasedAllocBudget = 58
	sessionTCPReleasedByteBudget  = 5_450
)
