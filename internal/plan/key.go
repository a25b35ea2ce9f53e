// Package plan chooses an s-to-p broadcasting algorithm for a given
// machine and broadcast instance — the paper's central finding is that the
// best algorithm depends jointly on the platform, the source distribution,
// the source count s and the message length L, so hard-coding one is wrong
// on some axis almost everywhere.
//
// The planner has two tiers:
//
//  1. an analytic tier that scores every registered broadcast algorithm
//     from the machine's calibrated cost parameters (internal/network):
//     an algorithm that compiles to a step schedule (core.Steps) is
//     priced from that schedule, the repositioning and partitioning
//     algorithms add the distance-to-ideal signals of the dist.Ideal*
//     generators to their inner schedule's price, and the rest have
//     closed forms;
//  2. an empirical tier that refines the top-k analytic candidates with
//     full deterministic probe simulations, run concurrently on a worker
//     pool and cancellable through a context. Every other collective has
//     at most k entries and skips the analytic tier: all are probed.
//
// In front of both sits an optional in-memory memo (Cache) keyed by the
// canonical (machine, mesh and its rank order, collective, s, L bucket,
// distribution signature) key, with deterministic FIFO eviction. It
// lives as long as the process, so every plan it returns is the current
// planner's choice. A hit skips both tiers; hit/miss/probe counts are
// surfaced through internal/metrics counters.
//
// Selection is deterministic: the probes are deterministic simulations,
// ties break by probe order (analytic rank, else registry order), and a
// warm cache returns the identical algorithm the cold path chose.
package plan

import (
	"fmt"
	"hash/fnv"
	"math/bits"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Key canonically identifies one planning instance. Two instances with
// the same Key are close enough that the same algorithm choice applies:
// the message length is bucketed by powers of two and the distribution is
// reduced to a signature (its paper name, or a hash of the explicit
// ranks).
type Key struct {
	// Machine is the machine's full name ("paragon-nx-10x10"), which
	// encodes platform, library, and physical configuration.
	Machine string
	// Rows, Cols are the logical mesh dimensions.
	Rows, Cols int
	// Indexing is the logical rank order: it lays out the line Br_Lin
	// and Br_kport<k> section, so snake and row-major plans differ.
	Indexing topology.Indexing
	// Coll is the collective's canonical name ("Broadcast", "AllToAll",
	// ...): different collectives have disjoint algorithm sets, so they
	// never share a plan.
	Coll string
	// S is the source count.
	S int
	// LBucket is the power-of-two bucket of the message length:
	// bits.Len(L), so L=4096 falls in bucket 13 and all L in
	// [2^(b-1), 2^b-1] share bucket b. L=0 is bucket 0.
	LBucket int
	// Dist is the distribution signature: "d:<name>" for a named paper
	// distribution, "h:<16 hex digits>" (FNV-64a over the sorted ranks)
	// for an explicit source set.
	Dist string
}

// LBucketOf returns the power-of-two bucket of a message length.
func LBucketOf(l int) int {
	if l < 0 {
		l = 0
	}
	return bits.Len(uint(l))
}

// DistSignature reduces a source distribution to the key's signature
// form: the paper name when one is known, otherwise a hash of the sorted
// explicit ranks.
func DistSignature(distName string, sources []int) string {
	if distName != "" {
		return "d:" + distName
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, src := range sources {
		v := uint64(src)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("h:%016x", h.Sum64())
}

// NewKey builds the canonical key for one planning instance. distName is
// the paper name of the distribution that produced the sources, or ""
// when the ranks were pinned explicitly.
func NewKey(m *machine.Machine, coll core.Collective, spec core.Spec, msgLen int, distName string) Key {
	return Key{
		Machine:  m.Name,
		Rows:     spec.Rows,
		Cols:     spec.Cols,
		Indexing: spec.Indexing,
		Coll:     string(coll),
		S:        spec.S(),
		LBucket:  LBucketOf(msgLen),
		Dist:     DistSignature(distName, spec.Sources),
	}
}

// String renders the key for display.
func (k Key) String() string {
	return fmt.Sprintf("m=%s|g=%dx%d|ix=%s|c=%s|s=%d|lb=%d|d=%s",
		k.Machine, k.Rows, k.Cols, k.Indexing, k.Coll, k.S, k.LBucket, k.Dist)
}
