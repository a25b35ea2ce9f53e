//go:build race

package plan

// coldDecideAllocBudget and coldDecideKBBudget under the race detector,
// whose sync.Pool drops a random quarter of what is put back: 1 508–1 597
// allocations and 577–585 kB per sweep over 42 runs, each budget 5 %
// over the largest.
const (
	coldDecideAllocBudget = 1677
	coldDecideKBBudget    = 615
)
