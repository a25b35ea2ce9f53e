//go:build !race

package cluster

// clusterRunAllocBudget is 5 % over the 155 allocations a warm cluster run
// costs (TestClusterRunAllocationBudget): an extra control message,
// per-rank stats objects or a reference buffer per verified part each
// cost more than that.
const clusterRunAllocBudget = 162
