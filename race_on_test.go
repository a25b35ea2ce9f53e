//go:build race

package stpbcast_test

// Allocation budgets per warm TCP session run under the race detector,
// whose sync.Pool drops a random quarter of what is put back, so the
// least-of-rounds count itself varies: 167–171 at 1 KiB (median 169) and
// 192–207 at 256 KiB (median 202), and 102–107 allocations of at most
// 12 802 bytes at 256 KiB when each result is released (medians 106 and
// 12 765). 5 % over the medians.
const (
	sessionTCPSmallAllocBudget    = 177
	sessionTCPLargeAllocBudget    = 212
	sessionTCPReleasedAllocBudget = 111
	sessionTCPReleasedByteBudget  = 13_500
)
