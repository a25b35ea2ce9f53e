//go:build race

package core

// raceEnabled reports that the race detector is on: every scheduler
// hand-off of the simulator's goroutine driver then costs ten times what
// it does otherwise, and the widest grids leave their largest machine out.
const raceEnabled = true
