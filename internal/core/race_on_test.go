//go:build race

package core

// raceEnabled says the race detector is on, whose own allocations count
// in a byte budget.
const raceEnabled = true
