//go:build race

package stpbcast_test

// Allocation budgets per warm TCP session run under the race detector,
// whose sync.Pool drops a random quarter of what is put back, so the
// least-of-rounds count itself varies: 112.0–116.5 at 1 KiB and
// 136.7–147.4 at 256 KiB over eight measurements, and 44.1–50.3
// allocations of at most 4 234 bytes at 256 KiB when each result is
// released. 5 % over the largest, rounded up.
const (
	sessionTCPSmallAllocBudget    = 123
	sessionTCPLargeAllocBudget    = 155
	sessionTCPReleasedAllocBudget = 53
	sessionTCPReleasedByteBudget  = 4_450
)
