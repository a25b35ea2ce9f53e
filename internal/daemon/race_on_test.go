//go:build race

package daemon

// requestAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 5 % over the median of 156–160.
const requestAllocBudget = 166
