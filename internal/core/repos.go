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

// reposition binds a repositioning run: the partial permutation onto
// the ideal positions, then the inner algorithm on them — one program
// when the inner algorithm is scripted. Around an inner algorithm whose
// body is code only the permutation is a script; the inner algorithm,
// bound to the ideal positions, runs after it.
func reposition(b *bound, inner Algorithm, spec Spec, ideal []int) {
	targets := repositionPermutation(spec, ideal)
	innerSpec := Spec{Rows: spec.Rows, Cols: spec.Cols, Sources: targets, Indexing: spec.Indexing}
	prelude := permute(spec, targets)
	if sc, ok := scriptOf(inner, innerSpec); ok {
		b.prog = then(prelude, sc).Compile(spec.P())
		return
	}
	inner = Bind(inner, innerSpec)
	b.run = func(c comm.Comm, mine comm.Message) comm.Message {
		return inner.Run(c, innerSpec, prelude.Run(c, mine))
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
	return bind(a, spec, func(b *bound) { reposition(b, a.inner, spec, idealSources(a.inner, spec)) })
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
	return bind(a, spec, func(b *bound) { reposition(b, a.inner, spec, a.ideal) })
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
