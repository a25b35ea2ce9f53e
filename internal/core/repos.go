package core

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/dist"
)

// IdealFor returns the ideal source distribution generator the paper pairs
// with each non-repositioning algorithm on a given machine:
//
//   - Br_Lin: the left diagonal Dl (Section 5.2; least sensitive to the
//     machine size and one of Br_Lin's ideal distributions),
//   - Br_xy_source: full rows at halving-ideal row positions,
//   - Br_xy_dim: full lines of the dimension processed second (columns
//     when rows go first, i.e. r ≥ c), at halving-ideal positions.
//
// The generator is a pure function of the machine dimensions, so every
// processor derives the identical ideal distribution.
func IdealFor(alg Algorithm, rows, cols int) dist.Distribution {
	switch alg.Name() {
	case "Br_Lin":
		return dist.DiagLeft()
	case "Br_xy_source":
		return dist.IdealRows()
	case "Br_xy_dim":
		if rows >= cols {
			// Rows are processed first; sources should fill columns.
			return dist.IdealColumns()
		}
		return dist.IdealRows()
	}
	// Sensible default for ablations: the machine-exact Br_Lin ideal.
	return dist.IdealSnake()
}

// repositionPermutation computes the partial permutation target ranks:
// the k-th source (in sorted order) moves its message to the k-th ideal
// position (in sorted order).
func repositionPermutation(spec Spec, ideal []int) []int {
	if len(ideal) != spec.S() {
		panic(fmt.Sprintf("core: ideal distribution has %d positions for %d sources", len(ideal), spec.S()))
	}
	targets := make([]int, len(ideal))
	copy(targets, ideal)
	sort.Ints(targets)
	return targets
}

// applyReposition performs the partial permutation on the calling
// processor and returns its post-permutation bundle: the bundle it
// received (it is an ideal position), its own bundle (source mapped to
// itself), or the empty bundle.
func applyReposition(c comm.Comm, spec Spec, targets []int, mine comm.Message) comm.Message {
	rank := c.Rank()
	var bundle comm.Message
	if i := spec.SourceIndex(rank); i >= 0 {
		if targets[i] == rank {
			bundle = mine
		} else {
			c.Send(targets[i], mine)
		}
	}
	for k, tgt := range targets {
		if tgt != rank {
			continue
		}
		src := spec.Sources[k]
		if src != rank {
			bundle = c.Recv(src)
		}
		break // ideal positions are unique
	}
	return bundle
}

// reposition binds a repositioning run: the partial permutation onto
// the ideal positions and the inner algorithm bound to them are computed
// once; a processor only moves its message and runs its inner steps.
func reposition(inner Algorithm, spec Spec, ideal []int) body {
	targets := repositionPermutation(spec, ideal)
	innerSpec := Spec{Rows: spec.Rows, Cols: spec.Cols, Sources: targets, Indexing: spec.Indexing}
	inner = Bind(inner, innerSpec)
	return func(c comm.Comm, mine comm.Message) comm.Message {
		c.Barrier()
		return inner.Run(c, innerSpec, applyReposition(c, spec, targets, mine))
	}
}

// idealSources evaluates the inner algorithm's ideal distribution for the
// spec's machine and source count.
func idealSources(inner Algorithm, spec Spec) []int {
	ideal, err := IdealFor(inner, spec.Rows, spec.Cols).Sources(spec.Rows, spec.Cols, spec.S())
	if err != nil {
		panic(err)
	}
	return ideal
}

// repos is a repositioning algorithm (Section 3): transform the given
// source distribution into an ideal distribution for the inner algorithm
// via a partial permutation, then invoke the inner algorithm. Like the
// paper's implementations, it does not test whether the initial
// distribution is already close to ideal — it always repositions.
type repos struct {
	name  string
	inner Algorithm
}

func (a repos) Name() string { return a.name }

func (a repos) Bind(spec Spec) Algorithm {
	return bind(a, spec, func() body { return reposition(a.inner, spec, idealSources(a.inner, spec)) })
}

func (a repos) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return a.Bind(spec).Run(c, spec, mine)
}

// reposFixed repositions to an explicit target position set instead of the
// paper's per-algorithm ideal generator. Used by ablations comparing
// repositioning targets.
type reposFixed struct {
	inner Algorithm
	ideal []int
}

func (a reposFixed) Name() string { return "Repos_to(" + a.inner.Name() + ")" }

func (a reposFixed) Bind(spec Spec) Algorithm {
	return bind(a, spec, func() body { return reposition(a.inner, spec, a.ideal) })
}

func (a reposFixed) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return a.Bind(spec).Run(c, spec, mine)
}

// ReposTo returns a repositioning algorithm that permutes the sources onto
// the given target positions (one per source) and then runs inner.
func ReposTo(inner Algorithm, ideal []int) Algorithm {
	return reposFixed{inner: inner, ideal: append([]int(nil), ideal...)}
}

// ReposLin returns Algorithm Repos_Lin: reposition to the left diagonal,
// then Br_Lin.
func ReposLin() Algorithm { return repos{name: "Repos_Lin", inner: BrLin()} }

// ReposXYSource returns Algorithm Repos_xy_source: reposition to ideal
// rows, then Br_xy_source.
func ReposXYSource() Algorithm { return repos{name: "Repos_xy_source", inner: BrXYSource()} }

// ReposXYDim returns Algorithm Repos_xy_dim: reposition to ideal lines of
// the dimension processed second, then Br_xy_dim.
func ReposXYDim() Algorithm { return repos{name: "Repos_xy_dim", inner: BrXYDim()} }
