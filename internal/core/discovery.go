package core

import (
	"fmt"
	"slices"

	"repro/internal/comm"
)

// The paper's algorithms assume every processor knows the source positions
// and message sizes before broadcasting starts (Section 1: "If this does
// not hold, synchronization and possible communication is needed before
// our algorithms can be used"). WithDiscovery supplies that missing
// phase: a recursive-doubling all-reduce of source flags (one byte per
// processor), after which every processor has derived the same Spec and
// the inner algorithm runs unchanged.
//
// The discovery phase costs ⌈log2 p⌉ rounds of p-byte messages — small
// next to the broadcast itself for all but tiny L, which the
// ablation-discovery experiment quantifies.
type discovery struct {
	inner Algorithm
}

// WithDiscovery wraps an algorithm with the source-discovery pre-phase.
// The wrapped algorithm's Run ignores spec.Sources on non-sources: each
// processor only needs to know whether it is itself a source (mine is
// non-empty); the global source set is established by the discovery
// exchange. spec.Sources must still be passed consistently (it defines
// ground truth for the run and lets tests verify the discovered set).
func WithDiscovery(inner Algorithm) Algorithm { return discovery{inner: inner} }

func (a discovery) Name() string { return "Discover+" + a.inner.Name() }

func (a discovery) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return a.Bind(spec).Run(c, spec, mine)
}

// Bind binds the inner algorithm to the declared sources: the discovery
// exchange must find exactly that set, so what it finds selects nothing.
func (a discovery) Bind(spec Spec) Algorithm {
	return bind(a, spec, func(b *bound) {
		inner := Bind(a.inner, spec)
		b.run = func(c comm.Comm, mine comm.Message) comm.Message {
			c.Barrier()
			// The discovered set must equal the declared one; a mismatch
			// means the caller's spec and payloads disagree.
			if discovered := discoverSources(c, len(mine.Parts) > 0); !slices.Equal(discovered, spec.Sources) {
				panic(fmt.Sprintf("core: discovered source set %v differs from spec %v", discovered, spec.Sources))
			}
			return inner.Run(c, spec, mine)
		}
	})
}

// discoverSources runs the recursive-doubling flag exchange and returns
// the sorted source ranks. On non-power-of-two machines the rounds use
// ring neighbours at doubling distances, which needs ⌈log2 p⌉ rounds of
// two messages each and reaches everyone.
func discoverSources(c comm.Comm, isSource bool) []int {
	p := c.Size()
	rank := c.Rank()
	flags := make([]byte, p)
	if isSource {
		flags[rank] = 1
	}
	if p == 1 {
		return flagsToSources(flags)
	}
	pow2 := p&(p-1) == 0
	for dist := 1; dist < p; dist <<= 1 {
		if pow2 {
			partner := rank ^ dist
			got := comm.Exchange(c, partner, comm.Message{Tag: -2, Parts: []comm.Part{{Origin: rank, Data: append([]byte(nil), flags...)}}})
			merge(flags, got.Parts[0].Data)
			continue
		}
		// Ring dissemination at doubling distances (works for any p):
		// send to rank+dist, receive from rank−dist.
		c.Send((rank+dist)%p, comm.Message{Tag: -2, Parts: []comm.Part{{Origin: rank, Data: append([]byte(nil), flags...)}}})
		got := c.Recv((rank - dist + p) % p)
		merge(flags, got.Parts[0].Data)
	}
	return flagsToSources(flags)
}

func merge(dst, src []byte) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func flagsToSources(flags []byte) []int {
	var out []int
	for i, f := range flags {
		if f != 0 {
			out = append(out, i)
		}
	}
	return out
}
