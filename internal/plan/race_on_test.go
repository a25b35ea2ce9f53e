//go:build race

package plan

// coldDecideAllocBudget under the race detector, whose sync.Pool drops a
// random quarter of what is put back: 1 843–1 900 allocations per sweep,
// the budget 5 % over their median.
const coldDecideAllocBudget = 1960
