//go:build race

package daemon

// requestAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 88–93 allocations over eight
// measurements, 5 % over the largest, rounded up.
const requestAllocBudget = 98
