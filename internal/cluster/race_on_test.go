//go:build race

package cluster

// clusterRunAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 179–188 allocations per run (median
// 184). It stays at the 190 the gate had before it was split by build
// tag, below the 193 that 5 % over the median would give: a budget is
// only ever tightened.
const clusterRunAllocBudget = 190
