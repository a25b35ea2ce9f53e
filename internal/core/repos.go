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

// permute is the script that opens a repositioning run: after the barrier
// the k-th source of spec sends its message to targets[k] and keeps
// nothing, and a target's bundle is the message it receives. A source
// mapped to itself keeps its message.
func permute(spec Spec, targets []int) comm.Script {
	// Rank r's message goes to to[r] and it gets from[r]'s, -1 for neither.
	p := spec.P()
	to := make([]int32, 2*p)
	for i := range to {
		to[i] = -1
	}
	to, from := to[:p], to[p:]
	for k, src := range spec.Sources {
		if tgt := targets[k]; tgt != src {
			to[src], from[tgt] = int32(tgt), int32(src)
		}
	}
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		b.Barrier()
		if to[rank] >= 0 {
			b.Move(int(to[rank]), 0)
		}
		if from[rank] >= 0 {
			b.Recv(int(from[rank]), 0)
		}
	}}
}

// reposition is a repositioning run's script: the partial permutation onto
// the ideal positions, then the inner algorithm on them.
func reposition(inner Algorithm, spec Spec, ideal []int) comm.Script {
	targets := repositionPermutation(spec, ideal)
	innerSpec := Spec{Rows: spec.Rows, Cols: spec.Cols, Sources: targets, Indexing: spec.Indexing}
	return then(permute(spec, targets), scriptOf(inner, innerSpec))
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
func repos(name string, inner Algorithm) Algorithm {
	return schedule{name: name, coll: Broadcast, declared: discovers(inner), write: func(spec Spec) comm.Script {
		return reposition(inner, spec, idealSources(inner, spec))
	}}
}

// ReposTo returns a repositioning algorithm that permutes the sources onto
// the given target positions (one per source) and then runs inner. Used
// by ablations comparing repositioning targets.
func ReposTo(inner Algorithm, ideal []int) Algorithm {
	ideal = append([]int(nil), ideal...)
	return schedule{name: "Repos_to(" + inner.Name() + ")", coll: Broadcast, declared: discovers(inner), write: func(spec Spec) comm.Script {
		return reposition(inner, spec, ideal)
	}}
}

// ReposLin returns Algorithm Repos_Lin: reposition to the left diagonal,
// then Br_Lin.
func ReposLin() Algorithm { return repos("Repos_Lin", BrLin()) }

// ReposXYSource returns Algorithm Repos_xy_source: reposition to ideal
// rows, then Br_xy_source.
func ReposXYSource() Algorithm { return repos("Repos_xy_source", BrXYSource()) }

// ReposXYDim returns Algorithm Repos_xy_dim: reposition to ideal lines of
// the dimension processed second, then Br_xy_dim.
func ReposXYDim() Algorithm { return repos("Repos_xy_dim", BrXYDim()) }
