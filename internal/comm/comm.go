// Package comm defines the message-passing interface the s-to-p
// broadcasting algorithms are written against, and the Program they
// compile to. The real-byte engines (internal/live, internal/tcp)
// implement the interface and execute a program rank by rank; the
// simulator (internal/sim) replays a program on message lengths under
// the network cost model, which is what produces the paper's figures.
//
// The interface mirrors the blocking NX/MPI primitives the paper's
// implementations used: matched blocking Send/Recv with FIFO ordering per
// (sender, receiver) pair, plus a Barrier. There is no wildcard receive;
// every algorithm in the paper knows exactly whom it talks to, because all
// processors know the source positions when broadcasting starts (Section 1).
package comm

import (
	"encoding/binary"
	"fmt"
)

// Part is one original broadcast message inside a (possibly combined)
// bundle: the rank that initiated it and its payload. The simulator
// never builds one: it replays a program on lengths alone.
type Part struct {
	Origin int
	Data   []byte
}

// Len returns the part's payload length.
func (p Part) Len() int { return len(p.Data) }

// Message is what travels between processors: one or more Parts. The
// message-combining algorithms (Br_*) merge messages whenever two meet at
// a processor, so a Message late in a run carries many Parts. Parts hold
// slice references: combining appends parts and never copies payload
// bytes.
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

// Append returns m with the parts of other appended. It does not
// deduplicate; the algorithms never deliver the same origin twice to the
// same processor (tests assert this).
func (m Message) Append(other Message) Message {
	m.Parts = append(m.Parts, other.Parts...)
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
	// (non-rendezvous) contract is load-bearing: pairwise exchanges and
	// the dissemination barriers have all participants send before they
	// receive, which deadlocks on a rendezvous transport.
	Send(dst int, m Message)
	// Recv blocks until the next message from src arrives and returns it.
	// Messages between a fixed (src, dst) pair arrive in send order.
	Recv(src int) Message
	// Barrier blocks until every processor has entered the barrier.
	Barrier()
}

// SharedSender is implemented by engines whose Send copies a message for
// the buffered-send contract, to let a sender that never changes what it
// sent skip that copy. A compiled schedule is such a sender: its executor
// writes no part's bytes, never reorders a part array in place and
// appends to an array only past every length it sent.
type SharedSender interface {
	// SendShared is Send for a message whose part array and bytes stay as
	// they are: the receiver may hold them without a copy. The receiver
	// must not change them either.
	SendShared(dst int, m Message)
}

// Clock marks a communicator that meters virtual time. No engine
// implements it: the simulator replays programs and charges combining
// itself. Only internal/core's recorder, the communicator a value
// without a program is run on to learn the program it wraps, does, so
// that the benchmark's tracing decorator hands it to the inner algorithm
// unwrapped (benchmark/trace.go). It goes with that decorator.
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

// ReducedOrigin is the Origin of the part a fold produces (Reduce and
// AllReduce results). It can never collide with a rank.
const ReducedOrigin = -1

// fold folds the parts of a and b together into a single ReducedOrigin
// part, tagged tag, under the byte-wise sum mod 256 (commutative and
// associative, so every reduction tree computes the same bytes) and as
// long as the longest part, which is how the simulator prices a reduced
// bundle. No parts fold to none — the identity contribution of a rank
// without one.
func (x *executor) fold(tag int, a, b []Part) Message {
	if len(a)+len(b) == 0 {
		return Message{Tag: tag}
	}
	// A lone part that is a fold already is its own fold.
	for _, one := range [2][]Part{a, b} {
		if len(one) == len(a)+len(b) && len(one) == 1 && one[0].Origin == ReducedOrigin {
			return Message{Tag: tag, Parts: one}
		}
	}
	maxLen := 0
	for _, parts := range [2][]Part{a, b} {
		for _, p := range parts {
			maxLen = max(maxLen, len(p.Data))
		}
	}
	sum := make([]byte, maxLen)
	for _, parts := range [2][]Part{a, b} {
		for _, p := range parts {
			addBytes(sum, p.Data)
		}
	}
	return Message{Tag: tag, Parts: append(x.array(1), Part{Origin: ReducedOrigin, Data: sum})}
}

// addBytes adds src into dst byte-wise mod 256 (len(dst) ≥ len(src)),
// eight bytes per step: the low seven bits of every byte lane add
// without carrying into the next lane, and the lanes' top bits are the
// XOR of both top bits and that carry.
func addBytes(dst, src []byte) {
	const top = 0x8080808080808080
	for len(src) >= 8 && len(dst) >= 8 {
		a, b := binary.LittleEndian.Uint64(dst), binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, (a&^top+b&^top)^((a^b)&top))
		dst, src = dst[8:], src[8:]
	}
	for i, b := range src {
		dst[i] += b
	}
}
