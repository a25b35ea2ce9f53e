// Package core implements the paper's s-to-p broadcasting algorithms:
//
//   - the library-based baselines 2-Step (gather + one-to-all broadcast)
//     and PersAlltoAll (personalized all-to-all exchange),
//   - the message-combining algorithms Br_Lin, Br_xy_source and Br_xy_dim
//     (Section 2),
//   - the repositioning algorithms Repos_Lin, Repos_xy_source and
//     Repos_xy_dim (Section 3), which permute the sources into an ideal
//     distribution before broadcasting,
//   - the partitioning algorithms Part_Lin, Part_xy_source and
//     Part_xy_dim (Section 3), which additionally split the machine into
//     two halves, broadcast independently, and finish with a pairwise
//     inter-half exchange, and
//   - Ring_AllGather, a modern-MPI ring all-gather included as an
//     ablation beyond the paper.
//
// Every algorithm is written against comm.Comm and therefore runs
// unchanged on the discrete-event simulator (timing figures) and on the
// live goroutine runtime (functional correctness). Following the paper's
// model, every processor knows the machine dimensions and the source
// positions when broadcasting starts, so the evolution of which processor
// holds which messages is computed locally and deterministically — no
// probing, no wildcard receives.
package core

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/topology"
)

// Spec describes one s-to-p broadcast instance on an r×c logical mesh.
// All processors must pass identical Specs to an algorithm.
type Spec struct {
	// Rows, Cols are the logical mesh dimensions; p = Rows·Cols must
	// equal the communicator size.
	Rows, Cols int
	// Sources are the sorted row-major ranks of the s source processors.
	Sources []int
	// Indexing is the linear order Br_Lin uses on the mesh. The paper
	// uses snake-like row-major; row-major is available for ablation.
	Indexing topology.Indexing
}

// P returns the processor count.
func (s Spec) P() int { return s.Rows * s.Cols }

// S returns the source count.
func (s Spec) S() int { return len(s.Sources) }

// Validate reports whether the spec is internally consistent and matches
// a machine of p processors.
func (s Spec) Validate(p int) error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("core: invalid mesh %d×%d", s.Rows, s.Cols)
	}
	if s.P() != p {
		return fmt.Errorf("core: mesh %d×%d does not cover machine of %d", s.Rows, s.Cols, p)
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("core: no sources")
	}
	if !sort.IntsAreSorted(s.Sources) {
		return fmt.Errorf("core: sources not sorted: %v", s.Sources)
	}
	for i, src := range s.Sources {
		if src < 0 || src >= p {
			return fmt.Errorf("core: source %d outside machine of %d", src, p)
		}
		if i > 0 && s.Sources[i-1] == src {
			return fmt.Errorf("core: duplicate source %d", src)
		}
	}
	return nil
}

// IsSource reports whether rank is a source.
func (s Spec) IsSource(rank int) bool {
	i := sort.SearchInts(s.Sources, rank)
	return i < len(s.Sources) && s.Sources[i] == rank
}

// SourceIndex returns rank's position among the sorted sources, or -1.
func (s Spec) SourceIndex(rank int) int {
	i := sort.SearchInts(s.Sources, rank)
	if i < len(s.Sources) && s.Sources[i] == rank {
		return i
	}
	return -1
}

// Algorithm is one s-to-p broadcasting algorithm. Run executes the
// broadcast on the calling processor: mine is the processor's initial
// bundle (see InitialFor) and the returned bundle carries all s
// original messages on every processor.
type Algorithm interface {
	// Name is the paper's name for the algorithm ("Br_Lin", ...).
	Name() string
	// Run performs the broadcast. All processors of the communicator
	// must call Run with the same spec. The part arrays of mine, of the
	// messages c delivers and of the result are the run's: an engine may
	// hand them to its next run once the run's bundles are copied out,
	// so what outlives the run is bytes, not arrays.
	Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message
}
