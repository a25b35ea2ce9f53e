package comm

import (
	"math"
	"sync/atomic"
)

// Run-scoped part storage. Every part array a real-byte run builds — a
// rank's initial bundle, a register grown to its final size, a
// selection, a fold, a received frame's parts — is dead once the run's
// consumer has copied out what it keeps: the facade builds its result
// maps of byte slices, a cluster worker checks its ranks' bundles. So an
// engine gives each rank, and each TCP connection end, an Arrays that
// lists the arrays it hands out during a run; when the consumer marks
// the run (Mark.Set), the next run is handed the same arrays again, in
// order. A run nobody marks is forgotten: the list is cleared and the GC
// takes its arrays. An owner on which no run was ever marked lists
// nothing, and allocates exactly what it would without the store. The
// TCP readers list the bytes they receive by the same rule (Mark.Frees),
// on a mark of its own: bytes are the caller's until it releases its
// result.

// ArraySource is implemented by engines that give each rank run-scoped
// part storage. A compiled program's executor takes the part arrays it
// builds from it instead of the heap; so does core.InitialOn.
type ArraySource interface {
	// PartArray returns an empty part array with room for n parts. It is
	// the rank's until the run's consumer marks the run's arrays dead.
	PartArray(n int) []Part
}

// Mark names the last run whose storage its consumer handed back; the
// zero Mark names none. It is safe for concurrent use: a consumer sets
// it between runs, the storage's owners read it as a run begins.
type Mark struct{ v atomic.Uint64 }

// Set marks run's storage free for the next run to reuse.
func (m *Mark) Set(run uint32) { m.v.Store(1<<32 | uint64(run)) }

// Frees is the one recycle rule, for storage listed for run listed:
// list says whether a run's storage is to be listed at all (some run was
// marked), reuse whether what was listed for listed is free (the mark
// names it). A nil Mark frees nothing.
func (m *Mark) Frees(listed uint32) (list, reuse bool) {
	if m == nil {
		return false, false
	}
	v := m.v.Load()
	return v != 0, v != 0 && uint32(v) == listed
}

// RecycledOrigin is the Origin of every part of a recycled array until
// the run it is handed to writes over it: a read through an array kept
// past its run's mark meets it and fails by name (core.Collective.Check
// reports it) instead of finding plausible parts. Overwriting the old
// parts also lets the GC take the bytes they held. It can never collide
// with a rank or with ReducedOrigin.
const RecycledOrigin = math.MinInt32

// Arrays is one owner's run-scoped part arrays, in the order its current
// run was given them. Only its owner touches it: a rank's goroutine, or a
// TCP connection end's reader pump.
type Arrays struct {
	run         uint32 // the run the listed arrays belong to
	list, reuse bool   // Mark.Frees at Begin
	arrays      [][]Part
	n           int // the cursor into arrays
}

// Begin starts the store on run. mark is the owner's consumer's: when it
// names the run the listed arrays belong to, they are handed out again,
// each first filled with RecycledOrigin parts; otherwise they are
// forgotten, keeping the list's backing array.
func (a *Arrays) Begin(run uint32, mark *Mark) {
	a.list, a.reuse = mark.Frees(a.run)
	a.run, a.n = run, 0
	if a.reuse {
		for _, p := range a.arrays {
			p = p[:cap(p)]
			for i := range p {
				p[i] = Part{Origin: RecycledOrigin}
			}
		}
		return
	}
	clear(a.arrays)
	a.arrays = a.arrays[:0]
}

// Next returns the next listed array, emptied, when its run was marked
// and it has room for n parts, and nil otherwise. Keep lists the array
// the caller ended up with in its place.
func (a *Arrays) Next(n int) []Part {
	if a.reuse && a.n < len(a.arrays) && cap(a.arrays[a.n]) >= n {
		return a.arrays[a.n][:0]
	}
	return nil
}

// Keep lists p at the cursor and moves past it, when the store lists.
func (a *Arrays) Keep(p []Part) {
	if !a.list {
		return
	}
	if a.n < len(a.arrays) {
		a.arrays[a.n] = p
	} else {
		a.arrays = append(a.arrays, p)
	}
	a.n++
}

// Get returns an empty part array with room for n parts, listed: Next's,
// or a new one.
func (a *Arrays) Get(n int) []Part {
	p := a.Next(n)
	if p == nil {
		p = make([]Part, 0, n)
	}
	a.Keep(p)
	return p
}
