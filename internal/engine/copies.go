package engine

import (
	"sync/atomic"

	"repro/internal/comm"
)

// copies is a machine's run-scoped storage for Run.Local's message
// copies (Machine.ReclaimCopies): one bump slab for payload bytes, one
// for part headers. The schedules are oblivious, so a run needs as much
// as the last one did; Machine.Run reclaims both slabs when it arms the
// next run, and from then on a copy the previous run handed out may
// hold the next run's bytes.
type copies struct {
	bytes slab[byte]
	parts slab[comm.Part]
	// poison, when nonzero, fills the byte slab on every reclaim (tests
	// set it), so a bundle kept past its run reads as poison instead of
	// as the stale bytes of some run.
	poison byte
}

// reclaim readies both slabs for the next run. No rank of the machine is
// running, so nothing can be carving from them.
func (c *copies) reclaim() {
	c.bytes.reclaim()
	c.parts.reclaim()
	if c.poison != 0 {
		for i := range c.bytes.buf {
			c.bytes.buf[i] = c.poison
		}
	}
}

// slab is bump storage shared by a machine's ranks: take carves from buf
// under an atomic offset, and falls back to make once a run has used buf
// up.
type slab[T any] struct {
	buf []T
	// off counts the elements handed out this run, overflow included, so
	// it ends the run at the run's high-water mark.
	off atomic.Int64
}

// take returns n elements of the slab, or fresh ones when the run has
// outgrown it; nil when n is 0. The capacity is clipped, so an append
// through one carve cannot reach the next. The elements are not zeroed.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	end := int(s.off.Add(int64(n)))
	if end > len(s.buf) {
		return make([]T, n)
	}
	return s.buf[end-n : end : end]
}

// reclaim rewinds the slab, first growing it to the last run's
// high-water mark when that run overflowed it.
func (s *slab[T]) reclaim() {
	if used := int(s.off.Load()); used > len(s.buf) {
		s.buf = make([]T, used)
	}
	s.off.Store(0)
}
