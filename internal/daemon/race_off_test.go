//go:build !race

package daemon

// requestAllocBudget is 5 % over the 176 allocations one request costs
// (TestRequestAllocationBudget).
const requestAllocBudget = 184
