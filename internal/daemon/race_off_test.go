//go:build !race

package daemon

// requestAllocBudget is 5 % over the 42 allocations one request costs
// (TestRequestAllocationBudget), rounded up.
const requestAllocBudget = 45
