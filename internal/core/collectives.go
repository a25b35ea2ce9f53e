package core

import (
	"encoding/binary"
	"fmt"
	"sort"
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
// may set for it and which runtimes can verify it. The facade validates
// Config against this table.
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
	// Cluster: supported on multi-process cluster sessions, whose
	// workers verify results locally. Only full broadcasts are verified
	// there today, so the other collectives are rejected.
	Cluster bool
}

// Caps returns the collective's capability row.
func (c Collective) Caps() Caps {
	switch c {
	case Broadcast:
		return Caps{TakesSources: true, Cluster: true}
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
const ReducedOrigin = -1

// ReduceBundle folds every part of m into a single ReducedOrigin part
// under the byte-wise sum mod 256 (commutative and associative, so every
// reduction tree computes the same bytes). Length-only parts fold to the
// maximum length, which is how the simulator prices a reduced bundle. An
// empty message stays empty — the identity contribution of a
// non-source rank.
func ReduceBundle(m comm.Message) comm.Message {
	if len(m.Parts) == 0 {
		return comm.Message{Tag: m.Tag}
	}
	maxLen := 0
	anyData := false
	for _, p := range m.Parts {
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
		if p.Data != nil {
			anyData = true
		}
	}
	// Data and Size are mutually exclusive on a Part (engines ignore and
	// may drop Size when Data is set), so the fold sets exactly one.
	out := comm.Part{Origin: ReducedOrigin}
	if anyData {
		sum := make([]byte, maxLen)
		for _, p := range m.Parts {
			addBytes(sum, p.Data)
		}
		out.Data = sum
	} else {
		out.Size = maxLen
	}
	return comm.Message{Tag: m.Tag, Parts: []comm.Part{out}}
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

// EncodeA2AOrigin packs an all-to-all chunk's (origin, destination) pair
// into the part's Origin field for transit: origin·p + dest. The routing
// steps read the destination with DecodeA2ADest; FinalizeAlltoall
// restores plain origins at the end.
func EncodeA2AOrigin(origin, dest, p int) int { return origin*p + dest }

// DecodeA2ADest extracts the destination rank from a transit-encoded
// all-to-all origin.
func DecodeA2ADest(enc, p int) int { return enc % p }

// FinalizeAlltoall rewrites the transit-encoded origins of a completed
// all-to-all bundle back to plain origin ranks and sorts the parts by
// origin. It panics if a chunk addressed to another rank is present —
// that is a routing bug, not an input error.
func FinalizeAlltoall(c comm.Comm, m comm.Message) comm.Message {
	p := c.Size()
	rank := c.Rank()
	for i := range m.Parts {
		enc := m.Parts[i].Origin
		if enc%p != rank {
			panic(fmt.Sprintf("core: all-to-all chunk for rank %d delivered to rank %d", enc%p, rank))
		}
		m.Parts[i].Origin = enc / p
	}
	sort.Slice(m.Parts, func(i, j int) bool { return m.Parts[i].Origin < m.Parts[j].Origin })
	return m
}

// chunk returns the d-th of p equal slices of data. The payload length
// must be a multiple of p; the facade's default payloads are, and an
// explicit RunOptions.Payload for a chunked collective must match.
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
// (payload supplies p·L bytes, chunk d addressed to rank d); for AllToAll
// every rank contributes p chunks with transit-encoded origins.
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
			parts[d] = comm.Part{Origin: EncodeA2AOrigin(rank, d, p), Data: chunk(data, d, p)}
		}
		return comm.Message{Parts: parts}
	default:
		if !spec.IsSource(rank) {
			return comm.Message{}
		}
		return comm.Message{Parts: []comm.Part{{Origin: rank, Data: payload(rank)}}}
	}
}

// InitialLenFor is InitialFor on the simulator's length-only path: size
// is the per-chunk (Scatter/AllToAll) or per-source (the rest) length L,
// declared without allocating payload bytes.
func InitialLenFor(coll Collective, spec Spec, rank, size int) comm.Message {
	p := spec.P()
	switch coll {
	case Scatter:
		if rank != spec.Sources[0] {
			return comm.Message{}
		}
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: d, Size: size}
		}
		return comm.Message{Parts: parts}
	case AllToAll:
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: EncodeA2AOrigin(rank, d, p), Size: size}
		}
		return comm.Message{Parts: parts}
	default:
		return InitialMessageLen(spec, rank, size)
	}
}

// InitialLen measures the bundle InitialLenFor builds without building it:
// its bytes and its part count, all a replayed program needs of it.
func InitialLen(coll Collective, spec Spec, rank, size int) (bytes, parts int) {
	switch {
	case coll == Scatter && rank != spec.Sources[0]:
		return 0, 0
	case coll.Caps().Chunked:
		return spec.P() * size, spec.P()
	case spec.IsSource(rank):
		return size, 1
	}
	return 0, 0
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
