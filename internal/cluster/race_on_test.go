//go:build race

package cluster

// clusterRunAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 9–11 allocations per run over
// eight measurements, 5 % over the largest, rounded up.
const clusterRunAllocBudget = 12
