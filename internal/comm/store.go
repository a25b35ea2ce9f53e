package comm

import (
	"math"
	"sync/atomic"
)

// Run-scoped storage. The schedules are oblivious, so every run of a
// bound instance builds the same slices in the same order, and what a
// run built is dead once its consumer has copied out, or dropped, what
// it keeps. One rule serves every such slice: a Store lists the slices
// it hands out during a run; when the consumer marks the run (Mark.Set),
// the next run is handed the same slices again, in order. A run nobody
// marks is forgotten: the list is cleared and the GC takes its slices.
// A store on which no run was ever marked lists nothing, and allocates
// exactly what it would without it. Three kinds of storage follow it:
//
//   - part arrays — a rank's initial bundle, a register grown to its
//     final size, a selection, a fold, a received frame's parts — per
//     rank and per TCP connection end, on engine.Machine.Recycle's mark;
//   - received payload bytes, per TCP connection end, on
//     tcp.Machine.Reclaim's mark: bytes are the caller's until it
//     releases its result;
//   - a session's result maps, on Result.Release's mark.

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

// FillRecycled is the part arrays' fill (Store.Begin): every part
// becomes a RecycledOrigin part.
func FillRecycled(p []Part) {
	for i := range p {
		p[i] = Part{Origin: RecycledOrigin}
	}
}

// Store is one owner's run-scoped slices of E, in the order its current
// run was given them. Only its owner touches it: a rank's goroutine, a
// TCP connection end's reader pump, a session's run.
type Store[E any] struct {
	run         uint32 // the run the listed slices belong to
	list, reuse bool   // Mark.Frees at Begin
	items       [][]E
	n           int // the cursor into items
}

// Begin starts the store on run. mark is the owner's consumer's: when it
// names the run the listed slices belong to, they are handed out again,
// each first passed whole to fill unless fill is nil; otherwise they are
// forgotten, keeping the list's backing array.
func (s *Store[E]) Begin(run uint32, mark *Mark, fill func([]E)) {
	s.list, s.reuse = mark.Frees(s.run)
	s.run, s.n = run, 0
	if s.reuse {
		if fill != nil {
			for _, x := range s.items {
				fill(x[:cap(x)])
			}
		}
		return
	}
	clear(s.items)
	s.items = s.items[:0]
}

// Next returns the next listed slice, emptied, when its run was marked
// and it has room for n elements, and nil otherwise. Keep lists the
// slice the caller ended up with in its place.
func (s *Store[E]) Next(n int) []E {
	if s.reuse && s.n < len(s.items) && cap(s.items[s.n]) >= n {
		return s.items[s.n][:0]
	}
	return nil
}

// Keep lists x at the cursor and moves past it, when the store lists.
func (s *Store[E]) Keep(x []E) {
	if !s.list {
		return
	}
	if s.n < len(s.items) {
		s.items[s.n] = x
	} else {
		s.items = append(s.items, x)
	}
	s.n++
}

// Get returns an empty slice with room for n elements, listed: Next's,
// or a new one.
func (s *Store[E]) Get(n int) []E {
	x := s.Next(n)
	if x == nil {
		x = make([]E, 0, n)
	}
	s.Keep(x)
	return x
}
