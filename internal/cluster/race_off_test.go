//go:build !race

package cluster

// clusterRunAllocBudget is 5 % over the 34 allocations a warm cluster run
// costs (TestClusterRunAllocationBudget): an extra control message,
// per-rank stats objects, a reference buffer per verified part, a worker
// compiling its program again or allocating its ranks' in-memory copies
// instead of carving them from its slabs each cost more than that.
const clusterRunAllocBudget = 35
