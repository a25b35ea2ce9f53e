//go:build race

package cluster

// clusterRunAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 115–124 allocations per run
// (median 120), 5 % over the median.
const clusterRunAllocBudget = 126
