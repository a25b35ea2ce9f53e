//go:build race

package plan

// coldDecideAllocBudget and coldDecideKBBudget under the race detector,
// whose sync.Pool drops a random quarter of what is put back: 1 404–1 483
// allocations and 446–453 kB per sweep over 42 runs, each budget 5 %
// over the largest.
const (
	coldDecideAllocBudget = 1558
	coldDecideKBBudget    = 476
)
