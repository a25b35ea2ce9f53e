// Package live executes an algorithm on a real concurrent runtime: one
// goroutine per processor, messages moved as real bytes through in-memory
// mailboxes. It is the functional-correctness twin of internal/sim — the
// same algorithm code runs on both engines — and the closest analogue of
// the paper's machines this environment offers (per-process address spaces
// approximated by goroutines and mailboxes instead of MPI).
//
// The package is the in-memory transport of internal/engine plus a
// constructor: the run lifecycle, Send/Recv/Barrier, deadlines, abort and
// failure semantics are the core's and are documented there. What live
// adds is how a message travels — pushed into the destination's inbox by
// the core's in-memory path: a compiled program's message as it is,
// since the program never changes what it sent (comm.SharedSender), any
// other copied on send, so a sender mutating its buffer after Send
// cannot corrupt a message in flight, the buffered semantics of NX csend
// that the algorithms assume. Unlike the simulator, it gives no virtual
// timing; it reports wall-clock elapsed time and operation counts.
package live

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/engine"
)

// The run-facing types are the core's.
type (
	Options = engine.Options
	Proc    = engine.Proc
	// Machine is a persistent live machine: mailboxes and barrier built
	// once by NewMachine and reused by every Run.
	Machine = engine.Machine
)

// memory is the in-process transport: every delivery is the core's local
// path, and there is no mesh to prepare, tear down or close.
type memory struct{}

func (memory) Deliver(r *engine.Run, src, dst int, m comm.Message, shared bool) error {
	r.Local(src, dst, m, shared)
	return nil
}
func (memory) Begin()       {}
func (memory) Abort()       {}
func (memory) Close() error { return nil }

// NewMachine builds the mailboxes and barrier for p processors and
// starts the machine's goroutines (one per processor and the deadline
// watchdog). The caller owns the machine and must Close it when done.
func NewMachine(p int) (*Machine, error) {
	if p <= 0 {
		return nil, fmt.Errorf("live: non-positive processor count %d", p)
	}
	return engine.New("live", p, 0, p, []int{0}, memory{}), nil
}
