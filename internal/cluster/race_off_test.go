//go:build !race

package cluster

// clusterRunAllocBudget is 5 % over the 113 allocations a warm cluster run
// costs (TestClusterRunAllocationBudget): an extra control message,
// per-rank stats objects, a reference buffer per verified part or a
// worker compiling its program again each cost more than that.
const clusterRunAllocBudget = 118
