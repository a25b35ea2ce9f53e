//go:build race

package plan

// coldDecideAllocBudget and coldDecideKBBudget under the race detector,
// whose sync.Pool drops a random quarter of what is put back: 1 552–1 633
// allocations and 1 828–1 834 kB per sweep over 21 runs, each budget 5 %
// over the largest.
const (
	coldDecideAllocBudget = 1715
	coldDecideKBBudget    = 1926
)
