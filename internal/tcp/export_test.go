package tcp

import (
	"fmt"
	"testing"
)

// poisoned is the byte poisonReclaimed fills with, 0 while it is off.
var poisoned byte

// poisonReclaimed turns the arenas' poison fill on for the rest of the
// test: every byte of a reclaimed run's storage reads b until the next
// run writes over it.
func poisonReclaimed(t *testing.T, b byte) {
	t.Helper()
	poisoned = b
	poison = func(slab []byte) {
		for i := range slab {
			slab[i] = b
		}
	}
	t.Cleanup(func() { poisoned, poison = 0, nil })
}

// unpoisoned names the first poisoned byte of data: what a read of a
// message whose run was reclaimed, and whose storage a later run
// reused, finds there.
func unpoisoned(data []byte) error {
	for i, b := range data {
		if poisoned != 0 && b == poisoned {
			return fmt.Errorf("byte %d of %d is the poison fill %#02x: read after its run was reclaimed", i, len(data), b)
		}
	}
	return nil
}
