//go:build race

package plan

// coldDecideAllocBudget and coldDecideKBBudget under the race detector,
// whose sync.Pool drops a random quarter of what is put back: 1 595–1 657
// allocations per sweep over nine runs and 2 706–2 709 kB over eight, each
// budget 5 % over the largest.
const (
	coldDecideAllocBudget = 1740
	coldDecideKBBudget    = 2845
)
