// Package plan chooses an s-to-p broadcasting algorithm for a given
// machine and broadcast instance — the paper's central finding is that the
// best algorithm depends jointly on the platform, the source distribution,
// the source count s and the message length L, so hard-coding one is wrong
// on some axis almost everywhere.
//
// The planner has three tiers:
//
//  1. an analytic tier that scores every registered algorithm from the
//     machine's calibrated cost parameters (internal/network): an
//     algorithm that compiles to a step schedule (core.Steps) is priced
//     from that schedule, the repositioning and partitioning algorithms
//     add the distance-to-ideal signals of the dist.Ideal* generators to
//     their inner schedule's price, and the rest have closed forms;
//  2. an empirical tier that refines the top-k analytic candidates with
//     full deterministic probe simulations, run concurrently on a worker
//     pool and cancellable through a context;
//  3. a persistent plan cache keyed by the canonical
//     (machine, mesh, s, L bucket, distribution signature) key, stored as
//     versioned JSON with deterministic FIFO eviction. Cache hits skip
//     both tiers entirely; hit/miss/probe counts are surfaced through
//     internal/metrics counters.
//
// Selection is deterministic: the probes are deterministic simulations,
// ties break by candidate order, and a warm cache returns the identical
// algorithm the cold path chose.
package plan

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
)

// KeyVersion is the canonical key format version. Bump it when the key
// layout or the meaning of a field changes; the cache discards entries
// whose version differs. Version 2 added the collective field.
const KeyVersion = 2

// Key canonically identifies one planning instance. Two instances with
// the same Key are close enough that the same algorithm choice applies:
// the message length is bucketed by powers of two and the distribution is
// reduced to a signature (its paper name, or a hash of the explicit
// ranks).
type Key struct {
	// Version is the key format version (KeyVersion).
	Version int
	// Machine is the machine's full name ("paragon-nx-10x10"), which
	// encodes platform, library, and physical configuration.
	Machine string
	// Rows, Cols are the logical mesh dimensions.
	Rows, Cols int
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
		Version: KeyVersion,
		Machine: m.Name,
		Rows:    spec.Rows,
		Cols:    spec.Cols,
		Coll:    string(coll),
		S:       spec.S(),
		LBucket: LBucketOf(msgLen),
		Dist:    DistSignature(distName, spec.Sources),
	}
}

// String renders the canonical encoding, the form the cache stores. The
// encoding is injective for keys whose Machine and Dist fields contain no
// '|' (NewKey never produces one; ParseKey rejects them).
func (k Key) String() string {
	return fmt.Sprintf("plan%d|m=%s|g=%dx%d|c=%s|s=%d|lb=%d|d=%s",
		k.Version, k.Machine, k.Rows, k.Cols, k.Coll, k.S, k.LBucket, k.Dist)
}

// ParseKey decodes a canonical key encoding. It is strict: every field
// must be present, in order, and re-encoding the result reproduces the
// input byte for byte.
func ParseKey(s string) (Key, error) {
	fields := strings.Split(s, "|")
	if len(fields) != 7 {
		return Key{}, fmt.Errorf("plan: key %q: want 7 fields, have %d", s, len(fields))
	}
	var k Key
	if !strings.HasPrefix(fields[0], "plan") {
		return Key{}, fmt.Errorf("plan: key %q: missing plan prefix", s)
	}
	v, err := strconv.Atoi(fields[0][len("plan"):])
	if err != nil {
		return Key{}, fmt.Errorf("plan: key %q: bad version: %v", s, err)
	}
	k.Version = v
	get := func(i int, prefix string) (string, error) {
		if !strings.HasPrefix(fields[i], prefix) {
			return "", fmt.Errorf("plan: key %q: field %d: want prefix %q", s, i, prefix)
		}
		return fields[i][len(prefix):], nil
	}
	if k.Machine, err = get(1, "m="); err != nil {
		return Key{}, err
	}
	if k.Machine == "" {
		return Key{}, fmt.Errorf("plan: key %q: empty machine", s)
	}
	mesh, err := get(2, "g=")
	if err != nil {
		return Key{}, err
	}
	if _, err := fmt.Sscanf(mesh, "%dx%d", &k.Rows, &k.Cols); err != nil {
		return Key{}, fmt.Errorf("plan: key %q: bad mesh %q: %v", s, mesh, err)
	}
	if mesh != fmt.Sprintf("%dx%d", k.Rows, k.Cols) {
		return Key{}, fmt.Errorf("plan: key %q: non-canonical mesh %q", s, mesh)
	}
	if k.Coll, err = get(3, "c="); err != nil {
		return Key{}, err
	}
	sv, err := get(4, "s=")
	if err != nil {
		return Key{}, err
	}
	if k.S, err = strconv.Atoi(sv); err != nil {
		return Key{}, fmt.Errorf("plan: key %q: bad source count: %v", s, err)
	}
	lb, err := get(5, "lb=")
	if err != nil {
		return Key{}, err
	}
	if k.LBucket, err = strconv.Atoi(lb); err != nil {
		return Key{}, fmt.Errorf("plan: key %q: bad L bucket: %v", s, err)
	}
	if k.Dist, err = get(6, "d="); err != nil {
		return Key{}, err
	}
	if err := k.validate(); err != nil {
		return Key{}, err
	}
	if k.String() != s {
		return Key{}, fmt.Errorf("plan: key %q: non-canonical encoding", s)
	}
	return k, nil
}

// validate enforces the canonical-form invariants String relies on.
func (k Key) validate() error {
	if k.Version < 0 {
		return fmt.Errorf("plan: key: negative version %d", k.Version)
	}
	printable := func(s string) bool {
		for _, r := range s {
			if r <= ' ' || r == '|' || r == 0x7f {
				return false
			}
		}
		return true
	}
	if !printable(k.Machine) || !printable(k.Dist) {
		return fmt.Errorf("plan: key: field contains separator, space, or control character")
	}
	if k.Rows <= 0 || k.Cols <= 0 || k.S < 0 || k.LBucket < 0 {
		return fmt.Errorf("plan: key: negative or degenerate field")
	}
	if coll, err := core.ParseCollective(k.Coll); err != nil || string(coll) != k.Coll {
		return fmt.Errorf("plan: key: non-canonical collective %q", k.Coll)
	}
	if !strings.HasPrefix(k.Dist, "d:") && !strings.HasPrefix(k.Dist, "h:") {
		return fmt.Errorf("plan: key: distribution signature %q lacks d:/h: prefix", k.Dist)
	}
	return nil
}
