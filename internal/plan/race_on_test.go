//go:build race

package plan

// coldDecideAllocBudget and coldDecideKBBudget under the race detector,
// whose sync.Pool drops a random quarter of what is put back: 1 595–1 657
// allocations per sweep over nine runs and 1 836–1 841 kB over five, each
// budget 5 % over the largest.
const (
	coldDecideAllocBudget = 1740
	coldDecideKBBudget    = 1934
)
