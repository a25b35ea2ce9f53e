//go:build race

package stpbcast_test

// Allocation budgets per warm TCP session run under the race detector,
// whose sync.Pool drops a random quarter of what is put back, so the
// least-of-rounds count itself varies: 185–190 at 1 KiB (median 188) and
// 213–223 at 256 KiB (median 219.5). 5 % over the medians.
const (
	sessionTCPSmallAllocBudget = 197
	sessionTCPLargeAllocBudget = 230
)
