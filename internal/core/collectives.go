package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"repro/internal/comm"
)

// Collective names one collective communication pattern. The registry
// holds algorithms for several collectives; the broadcast family is the
// paper's suite, the others are the modern extensions (reduction,
// scatter/allgather, all-to-all) that reuse the same combine, trace and
// autotune machinery.
type Collective string

// The implemented collectives.
const (
	// Broadcast is s-to-p broadcasting: s sources each hold a message
	// that must reach all p processors (the paper's problem).
	Broadcast Collective = "Broadcast"
	// Reduce folds the sources' contributions into one result at the
	// root (the first source) under the byte-wise sum mod 256.
	Reduce Collective = "Reduce"
	// AllReduce is Reduce delivered to every processor.
	AllReduce Collective = "AllReduce"
	// Scatter splits the root's p per-destination chunks so that rank r
	// ends with exactly chunk r.
	Scatter Collective = "Scatter"
	// AllGather concatenates every rank's contribution on every rank.
	AllGather Collective = "AllGather"
	// AllToAll is the personalized exchange: every rank holds p chunks,
	// one per destination, and ends with the p chunks addressed to it.
	AllToAll Collective = "AllToAll"
)

// Collectives returns every implemented collective, broadcast first.
func Collectives() []Collective {
	return []Collective{Broadcast, Reduce, AllReduce, Scatter, AllGather, AllToAll}
}

// ParseCollective maps a (case-insensitive) collective name to its
// canonical value. The empty string means Broadcast, so configurations
// written before the collective axis existed keep their meaning.
func ParseCollective(name string) (Collective, error) {
	if name == "" {
		return Broadcast, nil
	}
	for _, coll := range Collectives() {
		if strings.EqualFold(name, string(coll)) {
			return coll, nil
		}
	}
	return "", fmt.Errorf("core: unknown collective %q (want Broadcast, Reduce, AllReduce, Scatter, AllGather or AllToAll)", name)
}

// Caps is a collective's capability row: what the configuration surface
// may set for it. The facade validates Config against this table; every
// runtime, cluster sessions included, runs every collective.
type Caps struct {
	// TakesSources: the source set (Sources/SourceRanks/Distribution)
	// selects which ranks contribute. When false, every rank
	// participates and the source fields must stay unset.
	TakesSources bool
	// SingleSource: exactly one source (the root) is allowed.
	SingleSource bool
	// Combining: the result is an element-wise reduction of the
	// contributions (one ReducedOrigin part) rather than a concatenation
	// of the original messages.
	Combining bool
	// Chunked: initial bundles carry p per-destination chunks, so a
	// payload supplies p·L bytes rather than L.
	Chunked bool
}

// Caps returns the collective's capability row.
func (c Collective) Caps() Caps {
	switch c {
	case Broadcast:
		return Caps{TakesSources: true}
	case Reduce:
		return Caps{TakesSources: true, Combining: true}
	case AllReduce:
		return Caps{TakesSources: true, Combining: true}
	case Scatter:
		return Caps{TakesSources: true, SingleSource: true, Chunked: true}
	case AllGather:
		return Caps{}
	case AllToAll:
		return Caps{Chunked: true}
	}
	return Caps{}
}

// CollectiveAlgorithm is an Algorithm tagged with the collective it
// implements. Untagged algorithms are broadcasts (the paper's suite
// predates the collective axis).
type CollectiveAlgorithm interface {
	Algorithm
	// Collective names the pattern the algorithm implements.
	Collective() Collective
}

// CollectiveOf returns the collective an algorithm implements:
// its Collective() tag, or Broadcast for untagged algorithms.
func CollectiveOf(a Algorithm) Collective {
	if ca, ok := a.(CollectiveAlgorithm); ok {
		return ca.Collective()
	}
	return Broadcast
}

// ReducedOrigin is the Origin of a part produced by folding contributions
// under a reduction (Reduce/AllReduce results). It can never collide with
// a rank.
const ReducedOrigin = comm.ReducedOrigin

// chunk returns the d-th of p equal slices of data. The payload length
// must be a multiple of p; Payload's are, and an explicit
// RunOptions.Payload for a chunked collective must match.
func chunk(data []byte, d, p int) []byte {
	if len(data)%p != 0 {
		panic(fmt.Sprintf("core: chunked payload of %d bytes is not a multiple of p=%d", len(data), p))
	}
	cl := len(data) / p
	return data[d*cl : (d+1)*cl : (d+1)*cl]
}

// InitialFor builds the bundle a processor enters a collective with.
// payload is called only for ranks that hold initial data. For Broadcast,
// Reduce, AllReduce and AllGather each source contributes one part of its
// own bytes; for Scatter the root contributes p per-destination chunks
// (payload supplies p·L bytes, chunk d addressed to rank d, its Origin d);
// for AllToAll every rank contributes p chunks, chunk d addressed to rank
// d, each with the rank as its Origin. With Payload as payload, Check
// verifies what the run leaves.
func InitialFor(coll Collective, spec Spec, rank int, payload func(rank int) []byte) comm.Message {
	p := spec.P()
	switch coll {
	case Scatter:
		if rank != spec.Sources[0] {
			return comm.Message{}
		}
		data := payload(rank)
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: d, Data: chunk(data, d, p)}
		}
		return comm.Message{Parts: parts}
	case AllToAll:
		data := payload(rank)
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: rank, Data: chunk(data, d, p)}
		}
		return comm.Message{Parts: parts}
	default:
		if !spec.IsSource(rank) {
			return comm.Message{}
		}
		return comm.Message{Parts: []comm.Part{{Origin: rank, Data: payload(rank)}}}
	}
}

// Payload is the one deterministic payload: what rank contributes to c
// when the caller supplies no bytes of its own. It is size bytes of
// byte(rank) or, for the chunked collectives, p chunks of size bytes,
// chunk d filled with byte(rank+131·d), so that every (origin,
// destination) pair is distinguishable. Anyone can derive it from the
// rank alone, so a cluster worker verifies its ranks without a payload
// byte on the control plane.
func (c Collective) Payload(p, rank, size int) []byte {
	if !c.Caps().Chunked {
		p = 1
	}
	buf := make([]byte, p*size)
	for d := range p {
		chunk := buf[d*size : (d+1)*size]
		if size > 0 {
			chunk[0] = fillByte(rank, d)
		}
		for n := 1; n < size; n *= 2 {
			copy(chunk[n:], chunk[:n])
		}
	}
	return buf
}

// fillByte is the byte chunk d of origin's Payload is filled with.
func fillByte(origin, d int) byte { return byte(origin + 131*d) }

// Check verifies bundle, what rank holds at the end of a run of c whose
// ranks entered with Payload of sizes(origin) bytes, against c's
// postcondition:
//   - Broadcast, AllGather: one part per source, each that source's payload;
//   - Reduce: at the root (the first source) one ReducedOrigin part, the
//     byte-wise sum of the sources' payloads, and nothing elsewhere;
//     AllReduce: that part on every rank;
//   - Scatter: one part, origin rank, chunk rank of the root's payload;
//   - AllToAll: one part per rank o, chunk rank of o's payload.
//
// The combining collectives and Scatter take the root's size for their
// one part. Check sorts a copy of the part array by origin — the array
// may be shared with the ranks that sent it (comm.SharedSender), so it
// is never reordered in place — and checks their count, origin set,
// duplicates and lengths, and every byte with bytes.Count. It allocates
// nothing for up to checkOnStack parts unless it fails, and its error
// names the rank, the origin and, for wrong bytes, the first bad one. A
// fill per part cannot see bytes reordered inside a part:
// FuzzFrameRoundTrip (the wire) and TestFoldMatchesByteLoop (the fold)
// cover that.
func (c Collective) Check(spec Spec, sizes func(rank int) int, rank int, bundle comm.Message) error {
	var stack [checkOnStack]comm.Part
	got := append(stack[:0], bundle.Parts...)
	slices.SortFunc(got, func(a, b comm.Part) int { return a.Origin - b.Origin })
	n := c.parts(spec, rank)
	for i := 0; i < max(n, len(got)); i++ {
		origin, size, fill := 0, 0, byte(0)
		if i < n {
			origin, size, fill = c.part(spec, sizes, rank, i)
		}
		switch {
		case i < len(got) && i > 0 && got[i].Origin == got[i-1].Origin:
			return fmt.Errorf("%s: rank %d, origin %d: part held twice", c, rank, got[i].Origin)
		case i == len(got) || i < n && got[i].Origin > origin:
			return fmt.Errorf("%s: rank %d, origin %d: part missing", c, rank, origin)
		case i == n || got[i].Origin < origin:
			return fmt.Errorf("%s: rank %d, origin %d: part not expected here", c, rank, got[i].Origin)
		}
		data := got[i].Data
		if len(data) != size {
			return fmt.Errorf("%s: rank %d, origin %d: %d bytes, want %d", c, rank, origin, len(data), size)
		}
		if bytes.Count(data, []byte{fill}) == size {
			continue
		}
		for j, b := range data {
			if b != fill {
				return fmt.Errorf("%s: rank %d, origin %d: byte %d is %#02x, want %#02x", c, rank, origin, j, b, fill)
			}
		}
	}
	return nil
}

// checkOnStack is the most parts Check sorts without allocating: an
// all-to-all's bundle on a 64-rank machine.
const checkOnStack = 64

// parts is the number of parts rank holds at the end of a run of c.
func (c Collective) parts(spec Spec, rank int) int {
	switch c {
	case Reduce:
		if rank != spec.Sources[0] {
			return 0
		}
		return 1
	case AllReduce, Scatter:
		return 1
	case AllToAll:
		return spec.P()
	}
	return len(spec.Sources)
}

// part is the i-th part, in origin order, of what rank holds at the end
// of a run of c: its origin, length and fill byte.
func (c Collective) part(spec Spec, sizes func(rank int) int, rank, i int) (origin, size int, fill byte) {
	root := spec.Sources[0]
	switch c {
	case Reduce, AllReduce:
		for _, s := range spec.Sources {
			fill += fillByte(s, 0)
		}
		return ReducedOrigin, sizes(root), fill
	case Scatter:
		return rank, sizes(root), fillByte(root, rank)
	case AllToAll:
		return i, sizes(i), fillByte(i, rank)
	}
	o := spec.Sources[i]
	return o, sizes(o), fillByte(o, 0)
}

// InitialLen measures the bundle InitialFor builds for rank, size being
// the per-chunk (Scatter, AllToAll) or per-source (the rest) length L,
// without building it: the length of each of its parts and their count,
// all a replayed program needs of it.
func InitialLen(coll Collective, spec Spec, rank, size int) (partLen, parts int) {
	switch {
	case coll == Scatter && rank != spec.Sources[0]:
		return size, 0
	case coll.Caps().Chunked:
		return size, spec.P()
	case spec.IsSource(rank):
		return size, 1
	}
	return size, 0
}

// AllRanksSources returns the sorted source list naming every rank —
// the spec form of the sourceless collectives (AllGather, AllToAll).
func AllRanksSources(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}
