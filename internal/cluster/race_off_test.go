//go:build !race

package cluster

// clusterRunAllocBudget is 5 % over the 7 allocations a warm cluster run
// costs (TestClusterRunAllocationBudget), rounded up: an extra control
// message, a run result per worker on the heap, a reference buffer per
// verified part, a part array per rank that the workers' run-scoped
// storage no longer recycles, a worker compiling its program again or
// copying the messages its ranks send one another in memory, which a
// program shares uncopied, each cost more than that.
const clusterRunAllocBudget = 8
