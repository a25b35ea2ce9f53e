//go:build race

package plan

// coldDecideAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 1 595–1 657 allocations per sweep
// over nine runs, the budget 5 % over the largest.
const coldDecideAllocBudget = 1740
