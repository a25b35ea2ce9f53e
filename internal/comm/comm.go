// Package comm defines the message-passing interface the s-to-p
// broadcasting algorithms are written against. Two engines implement it:
// internal/sim (deterministic discrete-event simulation with the network
// cost model — produces the paper's figures) and internal/live (real
// goroutines and channels moving real bytes — proves functional
// correctness). Algorithm code is engine-agnostic.
//
// The interface mirrors the blocking NX/MPI primitives the paper's
// implementations used: matched blocking Send/Recv with FIFO ordering per
// (sender, receiver) pair, plus a Barrier. There is no wildcard receive;
// every algorithm in the paper knows exactly whom it talks to, because all
// processors know the source positions when broadcasting starts (Section 1).
package comm

import (
	"fmt"
	"sort"
)

// Part is one original broadcast message inside a (possibly combined)
// bundle: the rank that initiated it and its payload.
type Part struct {
	Origin int
	Data   []byte
	// Size is the simulated payload length in bytes when Data is nil —
	// the length-only path the discrete-event simulator uses so that
	// large sweeps never allocate real payload buffers. When Data is
	// non-nil, len(Data) is the length and Size is ignored. The live and
	// TCP engines move real bytes and should be given Data.
	Size int
}

// Len returns the part's payload length: len(Data) when Data is set,
// Size otherwise (the length-only simulator path).
func (p Part) Len() int {
	if p.Data != nil {
		return len(p.Data)
	}
	return p.Size
}

// Message is what travels between processors: one or more Parts. The
// message-combining algorithms (Br_*) merge messages whenever two meet at
// a processor, so a Message late in a run carries many Parts. Parts hold
// slice references; combining never copies payload bytes in the simulator
// (the copy cost is charged by the engine instead), while the live engine
// moves real bytes end to end.
type Message struct {
	// Tag labels the protocol step for traces; matching ignores it.
	Tag int
	// Parts are the bundled original messages.
	Parts []Part
}

// Len returns the payload size of the message in bytes, the quantity the
// cost model prices.
func (m Message) Len() int {
	n := 0
	for _, p := range m.Parts {
		n += p.Len()
	}
	return n
}

// Origins returns the sorted ranks whose original messages the bundle
// carries.
func (m Message) Origins() []int {
	out := make([]int, len(m.Parts))
	for i, p := range m.Parts {
		out[i] = p.Origin
	}
	sort.Ints(out)
	return out
}

// Append returns m with the parts of other appended. It does not
// deduplicate; the algorithms never deliver the same origin twice to the
// same processor (tests assert this).
func (m Message) Append(other Message) Message {
	m.Parts = append(m.Parts, other.Parts...)
	return m
}

// Grow returns m with its parts moved to a backing array of its own with
// room for n parts in total. Call it once, before the first Append, with
// the bundle's final part count: the merges then neither regrow the array
// step by step nor append in place to one another processor can see (a
// received message shares its sender's array on the simulator).
func (m Message) Grow(n int) Message {
	parts := make([]Part, len(m.Parts), max(n, len(m.Parts)))
	copy(parts, m.Parts)
	m.Parts = parts
	return m
}

// String summarizes the message for traces and test failures.
func (m Message) String() string {
	return fmt.Sprintf("msg{tag=%d parts=%d bytes=%d}", m.Tag, len(m.Parts), m.Len())
}

// Comm is one processor's handle onto the machine. All methods are called
// from that processor's own goroutine only.
type Comm interface {
	// Rank returns this processor's logical rank in [0, Size()).
	Rank() int
	// Size returns the number of processors p.
	Size() int
	// Send transfers a message to dst. It blocks for the local software
	// cost of issuing the send (buffer copy), not for delivery — the
	// semantics of NX csend with a buffered message. This buffered
	// (non-rendezvous) contract is load-bearing: Exchange and the
	// dissemination barriers have all participants send before they
	// receive, which deadlocks on a rendezvous transport.
	Send(dst int, m Message)
	// Recv blocks until the next message from src arrives and returns it.
	// Messages between a fixed (src, dst) pair arrive in send order.
	Recv(src int) Message
	// Barrier blocks until every processor has entered the barrier.
	Barrier()
}

// Clock is implemented by engines that track per-processor virtual time.
// Algorithms charge local computation (message combining) through it.
type Clock interface {
	// AdvanceCombine charges the local cost of merging n received bytes
	// into the accumulated broadcast bundle.
	AdvanceCombine(n int)
}

// IterMarker is implemented by engines that attribute activity to
// algorithm iterations (for the paper's Figure-2 parameters: congestion,
// av_msg_lgth, av_act_proc are per-iteration quantities).
type IterMarker interface {
	// BeginIter marks the start of iteration i on this processor.
	BeginIter(i int)
}

// PhaseMarker is implemented by engines that stamp traced events with an
// algorithm-defined phase label ("gather", "broadcast", ...), so a trace
// can attribute every send, receive and wait to the protocol stage that
// issued it.
type PhaseMarker interface {
	// BeginPhase labels subsequent activity on this processor; an empty
	// name clears the label.
	BeginPhase(name string)
}

// ChargeCombine charges message-combining cost if the engine meters it.
// On the live engine the combining is real work and needs no charge.
func ChargeCombine(c Comm, n int) {
	if cl, ok := c.(Clock); ok {
		cl.AdvanceCombine(n)
	}
}

// MarkIter marks an iteration boundary if the engine records iterations.
func MarkIter(c Comm, i int) {
	if m, ok := c.(IterMarker); ok {
		m.BeginIter(i)
	}
}

// MarkPhase labels the processor's current protocol phase if the engine
// stamps traced events with phases.
func MarkPhase(c Comm, name string) {
	if m, ok := c.(PhaseMarker); ok {
		m.BeginPhase(name)
	}
}

// Exchange performs the paper's pairwise step: send our bundle to peer
// and receive theirs. Both sides send before receiving — there is no
// rank-ordered turn-taking — which is deadlock-free only because every
// engine's Send is buffered (it blocks for the local cost of handing the
// message to the transport, never for the peer to post a matching
// receive, mirroring NX csend). An engine with rendezvous sends would
// deadlock here; any future engine must preserve the buffered-send
// contract documented on Comm.Send.
func Exchange(c Comm, peer int, m Message) Message {
	if peer == c.Rank() {
		panic(fmt.Sprintf("comm: rank %d exchanging with itself", peer))
	}
	c.Send(peer, m)
	return c.Recv(peer)
}
