//go:build race

package plan

// coldDecideAllocBudget and coldDecideKBBudget under the race detector,
// whose sync.Pool drops a random quarter of what is put back: 1 224–1 311
// allocations and 365–372 kB per sweep over 38 runs, each budget 5 %
// over the largest.
const (
	coldDecideAllocBudget = 1377
	coldDecideKBBudget    = 391
)
