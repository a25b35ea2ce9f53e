//go:build race

package plan

// coldDecideAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 1 763–1 800 allocations per sweep,
// the budget 5 % over their median.
const coldDecideAllocBudget = 1865
