//go:build race

package cluster

// clusterRunAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 32–34 allocations per run over ten
// measurements, 5 % over their midpoint.
const clusterRunAllocBudget = 35
