package core

import (
	"fmt"
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
const ReducedOrigin = comm.ReducedOrigin

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
// (payload supplies p·L bytes, chunk d addressed to rank d, its Origin d);
// for AllToAll every rank contributes p chunks, chunk d addressed to rank
// d, each with the rank as its Origin.
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
			parts[d] = comm.Part{Origin: rank, Size: size}
		}
		return comm.Message{Parts: parts}
	default:
		return InitialMessageLen(spec, rank, size)
	}
}

// InitialLen measures the bundle InitialLenFor builds without building it:
// the length of each of its parts and their count, all a replayed program
// needs of it.
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
