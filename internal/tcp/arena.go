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
// pump. A decoded frame's storage — one slab shared by the parts of a
// buffered window, a buffer of its own for a part larger than the window,
// and the frame's part array — belongs to whoever holds the message: the
// inbox's comm.Queue until delivery, then the algorithm, whose result
// bundles keep it. Each comes back on its own mark, by the one recycle
// rule (comm.Mark.Frees), and is handed out again, in order, to the
// frames of the next run the arena sees:
//
//   - the part array as soon as the run's consumer has copied the
//     bundles out — the facade once it has built its result maps, a
//     cluster worker once its checks pass (engine.Machine.Recycle, whose
//     mark the ranks' own arrays follow too, comm.Arrays);
//   - the payload bytes only when the caller says so:
//     Machine.Reclaim(epoch) (Result.Release in the facade, a cluster
//     worker once its checks pass).
//
// A run nobody marks is forgotten instead: the arena clears its list and
// the GC takes the storage once its result is dropped. So a session that
// releases every result retains one run's received bytes per connection
// end between runs and allocates almost none per run; a machine on which
// no run was ever reclaimed lists no bytes and allocates them exactly as
// it did before arenas existed. Parts of one window share a slab,
// capacity-clipped so an append through one cannot reach the next; a
// consumer that keeps one small part of a frame keeps at most readBufSize
// bytes alive with it.

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

// runArena is one connection end's receive storage, in the order the
// frames of its current run were given it (see the receive side above).
// Only its reader pump touches it.
type runArena struct {
	// epoch is the run the listed storage belongs to.
	epoch uint32
	// list marks a machine on which some run was reclaimed: only then
	// are a run's slabs listed. reuse marks that the listed slabs' run
	// was reclaimed, so they are handed out again.
	list, reuse bool
	slabs       [][]byte // payload storage: window slabs and own-buffer parts
	ns          int      // the cursor into slabs
	arrays      comm.Arrays
}

// poison, when nonzero, overwrites every byte of a reclaimed run's
// buffers before they are handed out again, so that a read past
// Release meets it instead of plausible bytes. Only tests set it.
var poison byte

// begin starts the arena on the first frame of a newer run. reclaimed and
// recycled are the machine's marks for the bytes and the part arrays
// (nil for a reader without a machine): storage whose run its mark names
// is handed out again, the rest forgotten, keeping the lists' backing
// arrays.
func (a *runArena) begin(epoch uint32, reclaimed, recycled *comm.Mark) {
	a.arrays.Begin(epoch, recycled)
	a.list, a.reuse = reclaimed.Frees(a.epoch)
	a.epoch, a.ns = epoch, 0
	if a.reuse {
		if poison != 0 {
			for _, b := range a.slabs {
				b = b[:cap(b)]
				for i := range b {
					b[i] = poison
				}
			}
		}
		return
	}
	clear(a.slabs)
	a.slabs = a.slabs[:0]
}

// bytes returns n bytes of payload storage, capacity-clipped: the next
// listed buffer when its run was reclaimed and it is large enough, a new
// one otherwise.
func (a *runArena) bytes(n int) []byte {
	if a.reuse && a.ns < len(a.slabs) && cap(a.slabs[a.ns]) >= n {
		a.ns++
		return a.slabs[a.ns-1][:n:n]
	}
	b := make([]byte, n)
	if a.list {
		if a.ns < len(a.slabs) {
			a.slabs[a.ns] = b
		} else {
			a.slabs = append(a.slabs, b)
		}
		a.ns++
	}
	return b
}

// parts returns an empty part array for a frame of n parts: the next
// listed array when its run was recycled and it holds n parts, a new one
// otherwise, as large as n or maxEagerParts, whichever is smaller. The
// frame reader lists what the frame's parts ended up in (arrays.Keep).
func (a *runArena) parts(n int) []comm.Part {
	if p := a.arrays.Next(n); p != nil {
		return p
	}
	return make([]comm.Part, 0, min(n, maxEagerParts))
}
