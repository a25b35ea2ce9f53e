//go:build race

package cluster

// clusterRunAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 137–144 allocations per run
// (median 141.5), 5 % over the median.
const clusterRunAllocBudget = 148
