package tcp

// The buffer arenas behind the frame hot path.
//
// Send side: sync.Pool-backed storage for frame scratch (frame headers,
// part headers, the small-frame copy buffer and the writev gather list).
// It is package-level and shared across runs and machines — a sync.Pool
// already provides per-P caching and GC-driven draining. A frameScratch
// is only ever held across one writeFrameTo call under the
// per-destination write lock, so nothing it references outlives the
// write; putScratch drops payload references before the scratch
// re-enters the pool.
//
// Receive side: one runArena per connection end, owned by its reader
// pump: two run-scoped stores (comm.Store), one for the payload bytes,
// on Machine.Reclaim's mark, one for the frames' part arrays, on
// engine.Machine.Recycle's. The parts of a buffered window share one
// slab, and a part larger than the window gets a buffer of its own. Each
// part is capacity-clipped, so an append through one cannot reach the
// next, and a consumer that keeps one small part of a frame keeps at
// most readBufSize bytes alive with it.

import (
	"net"
	"sync"

	"repro/internal/comm"
)

const (
	frameHdrLen = 12
	partHdrLen  = 8
)

// frameScratch is the send-side working set of one frame write: a
// contiguous encode buffer for small frames, the header
// bytes backing a gather list, and the gather list itself. It cycles
// through scratchPool once per frame write.
type frameScratch struct {
	flat []byte      // contiguous encoding of a small frame
	hdr  []byte      // frame + part header bytes backing bufs
	bufs net.Buffers // gather list: hdr, then (part hdr, payload) pairs
	// vec is the consumable view handed to net.Buffers.WriteTo, which
	// advances and mutates it in place. It shares bufs's backing array;
	// keeping it a field (instead of a local) stops the slice header
	// from escaping to the heap on every vectored write.
	vec net.Buffers
}

var scratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

func getScratch() *frameScratch { return scratchPool.Get().(*frameScratch) }

func putScratch(sc *frameScratch) {
	// Drop payload references so a pooled scratch never retains message
	// bytes (the flat and hdr buffers hold only our own header/copy
	// storage and are kept for reuse).
	for i := range sc.bufs {
		sc.bufs[i] = nil
	}
	sc.bufs = sc.bufs[:0]
	sc.vec = nil
	scratchPool.Put(sc)
}

// runArena is one connection end's receive storage (see the receive
// side above). Only its reader pump touches it.
type runArena struct {
	epoch uint32 // the run its stores were begun on
	bytes comm.Store[byte]
	parts comm.Store[comm.Part]
}

// poison, when set, is the byte store's fill: it overwrites a reclaimed
// run's buffers before they are handed out again, so that a read past
// Release meets it instead of plausible bytes. Only tests set it.
var poison func([]byte)

// begin starts the arena's stores on the first frame of a newer run.
// reclaimed and recycled are the machine's marks for the bytes and the
// part arrays (nil for a reader without a machine).
func (a *runArena) begin(epoch uint32, reclaimed, recycled *comm.Mark) {
	a.epoch = epoch
	a.bytes.Begin(epoch, reclaimed, poison)
	a.parts.Begin(epoch, recycled, comm.FillRecycled)
}
