package tcp

// The buffer arena behind the frame hot path: sync.Pool-backed storage
// for send-side frame scratch (frame headers, part headers, the small-
// frame copy buffer and the writev gather list). The arena is
// package-level and shared across runs and machines — a sync.Pool already
// provides per-P caching and GC-driven draining.
//
// Ownership discipline:
//
//   - Send side: a frameScratch is only ever held across one writeFrameTo
//     call under the per-destination write lock, so nothing it references
//     outlives the write. putScratch drops payload references before the
//     scratch re-enters the pool.
//   - Receive side: nothing is pooled. A decoded frame's storage — one
//     slab shared by the parts of a buffered window, or a buffer of its
//     own for a part larger than the window (frameReader) — belongs to
//     whoever holds the message: the inbox's comm.Queue until delivery,
//     then the algorithm (result bundles keep it). Delivered buffers can
//     never come back, so a receive-side pool would miss on every frame
//     that matters; the few frames that are never delivered (stale-epoch
//     drops, leftovers wiped between runs) are simply left to the GC.
//     Parts of one frame may share a slab, capacity-clipped so an append
//     through one cannot reach the next; a consumer that keeps one small
//     part of a frame keeps at most readBufSize bytes alive with it.

import (
	"net"
	"sync"
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
