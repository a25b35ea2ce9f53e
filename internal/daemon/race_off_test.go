//go:build !race

package daemon

// requestAllocBudget is 5 % over the 45 allocations one request costs
// (TestRequestAllocationBudget), rounded up.
const requestAllocBudget = 48
