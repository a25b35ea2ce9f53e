//go:build !race

package daemon

// requestAllocBudget is 5 % over the 109 allocations one request costs
// (TestRequestAllocationBudget).
const requestAllocBudget = 114
