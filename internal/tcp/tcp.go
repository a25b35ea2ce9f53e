// Package tcp executes an algorithm over real TCP sockets: every
// processor owns a loopback listener, peers are connected with one TCP
// connection per processor pair — the full O(p²) mesh by default, or
// only the route-derived sparse link set when Options.Links is given —
// and messages travel as length-prefixed frames. It is the
// distributed-transport engine of the
// repro hint ("channels/gRPC approximation" of MPI): where internal/live
// approximates message passing with in-process mailboxes, this engine
// moves every byte through the kernel's network stack, exercising the
// same algorithm code over a transport with real serialization.
//
// Semantics match the other engines: blocking Send/Recv with FIFO order
// per (sender, receiver) pair, and a Barrier. The barrier is aware of
// processes: ranks that share an address space meet in memory, and only
// when the mesh spans several processes (cluster workers) does one
// leader rank per process exchange dissemination tokens over the wire.
// Those tokens travel on the same sockets as data but are demultiplexed
// by tag and metered separately, so ProcStats counts agree with the live
// engine for the same algorithm.
//
// # Sessions
//
// Building the machine is expensive — p listeners, an O(p²) dialed mesh
// with handshakes and retry, and one reader pump per connection end — so
// the engine separates setup from execution. NewMachine stands the mesh
// up once; Machine.Run executes one algorithm over the warm connections
// and may be called many times back to back; Machine.Close tears
// everything down. Run/RunOpts remain as one-shot open-run-close
// wrappers, preserving the historical API.
//
// Run isolation is by epoch: every frame carries the epoch of the run
// that sent it, the reader pumps discard frames whose epoch is not the
// current run's (or that arrive between runs), and each run starts from
// mailboxes wiped of the previous run's leftovers. A broadcast that
// aborts — panic, injected kill, deadline — can therefore never leak a
// frame, a poisoned mailbox, or a stale barrier token into the next run.
//
// An abort closes the mesh; the session survives it. The next Run
// notices the damage, joins the orphaned reader pumps, and redials the
// planned link set — the sparse one when the machine was built with
// Options.Links, the full mesh otherwise — over the still-open listeners
// (counted in Reconnects), so a killed connection costs one failed run
// plus one reconnect, not the session, and a sparse machine never pays
// for connections its schedule does not use.
//
// # Sparse mesh and k-ported drivers
//
// The paper's algorithms send along a schedule's logical links, a set
// that grows like p·log p — not p². Options.Links (a setup field) lists
// those directed (src,dst) links; NewMachine then materializes only the
// connections they need, multiplexing both directions of a peer pair
// (and every logical link between that pair) over one shared TCP
// connection. A send over a link that was not planned falls back to a
// lazy on-demand dial with the same retry/backoff as setup, so sparse
// planning is a performance contract, not a correctness one. Every rank
// keeps a persistent acceptor, and registration waits until both
// endpoints of a pair are installed, so two ranks racing to open the
// same pair always converge on one connection.
//
// # Worker machines (cluster partitioning)
//
// NewWorkerMachine builds the partial machine one cluster worker
// process owns: listeners, procs and reader pumps for a contiguous rank
// range [lo,hi) only, with Options.ListenHost choosing the bind
// address. The coordinator (internal/cluster) collects every worker's
// LocalAddrs, distributes the merged rank→address map, and drives
// ConnectMesh so each planned pair is dialed by the worker owning its
// higher rank — the same frame protocol, handshake and registration
// path as the single-process mesh, now across OS processes. Runs start
// with a coordinator-assigned Options.Epoch and an Options.StartGate
// rendezvous so every worker's mailboxes are armed before the first
// frame flies; a broken mesh is rebuilt by the coordinator (ResetMesh
// then ConnectMesh on every worker), never by one worker on its own.
//
// Options.Ports (a run field) adds the k-ported send path modeled after
// the paper's multi-channel routers: each rank drives its outbound
// links through per-destination driver goroutines with bounded queues,
// and a semaphore of k port tokens bounds how many links transmit
// concurrently. Ports=1 serializes transmissions like a one-port node;
// Ports=k overlaps up to k links, which is what the k-ported broadcast
// schedules in the registry exploit.
//
// # Failure semantics
//
// Run never hangs when a deadline is configured; every failure becomes a
// returned error:
//
//   - A processor panics: the run aborts, all connections are closed,
//     every peer blocked in Recv or Barrier unwinds, and Run reports the
//     panicking rank as the root cause.
//   - A connection fails mid-run: the affected receiver reports the
//     broken link as the root cause; everyone else unwinds. A connection
//     closing during teardown (Close) or between runs is not an error —
//     the next Run rebuilds the mesh.
//   - A blocking Recv or Barrier wait exceeds Options.RecvTimeout: the
//     stalled rank aborts the run with an error naming itself and the
//     awaited peer (for a barrier, the ranks that never arrived).
//   - Options.Context is canceled or Options.RunTimeout elapses: the run
//     aborts with the cancellation cause.
//   - A transient dial failure during setup is retried with exponential
//     backoff (Options.DialAttempts / DialBackoff) before it is fatal.
package tcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

// frame layout: [epoch uint32][tag int32][nparts int32] then per part
// [origin int32][len int32][payload]. The sender is identified by the
// connection; the epoch identifies the run, so a frame from an aborted
// or slow previous run is recognizably stale and dropped by the pumps.

const (
	// barrierTag marks dissemination-barrier frames. The value is
	// reserved: Send rejects algorithm messages carrying it, so barrier
	// and data traffic can never be confused even when frames from the
	// same peer interleave. (Algorithm code uses small tags such as the
	// -1 of comm.Sub barriers, which are ordinary data here.)
	barrierTag = math.MinInt32
	// maxPartLen guards against corrupt length prefixes.
	maxPartLen = 1 << 30
	// maxParts guards against corrupt part counts: no broadcast bundles
	// more parts than this (the largest machines are a few hundred
	// ranks, one part per origin).
	maxParts = 1 << 20
	// contiguousLimit is the frame size up to which the writer encodes
	// the whole frame into one contiguous scratch buffer and issues a
	// single Write. Larger frames switch to the vectored path — a
	// net.Buffers gather list referencing payloads in place — so big
	// payloads are never recopied just to save syscalls.
	contiguousLimit = 4 << 10
	// readBufSize is each connection end's read buffer: large enough that
	// a frame the writer sent contiguously usually arrives in one read,
	// small enough that a full p=256 mesh's buffers stay in the low
	// megabytes. Parts that do not fit it bypass it.
	readBufSize = 4 << 10
	// maxEagerParts caps the part slice allocated before any part has
	// arrived; frames with more parts grow it as they decode.
	maxEagerParts = 1 << 10

	defaultDialAttempts = 3
	defaultDialBackoff  = 10 * time.Millisecond
	// handshakeTimeout bounds the rank-announcement read so a dialer
	// dying between connect and handshake cannot hang setup.
	handshakeTimeout = 10 * time.Second
)

// Options harden a run. The zero value preserves the historical
// behaviour (no deadlines, no cancellation, default dial retry).
//
// With the session API the fields split by lifetime: NewMachine consumes
// the setup fields (Dial, DialAttempts, DialBackoff) and remembers them
// for mesh rebuilds; Machine.Run consumes the run fields (Context,
// RunTimeout, RecvTimeout, Tracer) afresh on every call, so successive
// runs over one machine can use different deadlines and tracers. The
// one-shot RunOpts passes the same Options to both.
type Options struct {
	// Context, when non-nil, cancels the run (setup backoff waits and
	// the algorithm phase): blocked processors unwind and Run returns
	// an error carrying ctx.Err().
	Context context.Context
	// RunTimeout, when positive, bounds the algorithm phase.
	RunTimeout time.Duration
	// RecvTimeout, when positive, bounds any single blocking Recv or
	// Barrier wait; exceeding it aborts the run with an error naming
	// the blocked rank and the peer it waited on (for a barrier, the
	// local ranks that never arrived, or the remote leader whose token
	// did not come).
	RecvTimeout time.Duration
	// DialAttempts is the number of connection attempts per peer during
	// setup (0 means the default of 3); transient dial failures are
	// retried with exponential backoff starting at DialBackoff (0 means
	// 10ms).
	DialAttempts int
	DialBackoff  time.Duration
	// Dial overrides the dialer (fault injection in tests); nil means
	// net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Links, when non-nil, lists the directed logical (src,dst) links the
	// planned workload uses (a setup field, remembered for mesh
	// rebuilds). NewMachine then materializes only the connections those
	// links need — one shared TCP connection per unordered peer pair,
	// multiplexing both directions — instead of the full O(p²) mesh.
	// Self links are ignored; out-of-range ranks are a setup error. A
	// send over an unplanned link falls back to a lazy on-demand dial
	// with the same retry/backoff, so Links never changes what runs,
	// only what is paid for up front. nil keeps the historical full
	// mesh; an empty non-nil slice plans no links at all (everything
	// lazy).
	Links [][2]int
	// ListenHost is the host the machine's listeners bind to (a setup
	// field). Empty means the historical loopback-only "127.0.0.1";
	// cluster workers that must be reachable from other hosts set it to
	// an externally visible address. The bound host is also what
	// LocalAddrs advertises to the coordinator.
	ListenHost string
	// Epoch, when nonzero, is the run's frame epoch (a run field). The
	// cluster coordinator assigns one common epoch to every worker's
	// run so frames demultiplex consistently across processes; zero
	// keeps the machine's own auto-incremented epoch.
	Epoch uint32
	// StartGate, when non-nil, is called after the run's mailboxes are
	// armed (pumps deliver current-epoch frames) but before any rank
	// goroutine launches (a run field). A cluster worker acks "armed" to
	// the coordinator inside the gate and blocks until every other
	// worker is armed too, so no frame can arrive at a process that
	// would still discard it as stale. Returning an error aborts the
	// run before any rank executes.
	StartGate func() error
	// DisableNoDelay leaves Nagle's algorithm enabled on the mesh's
	// sockets (a setup field, remembered for rebuilds). By default every
	// dialed and accepted connection sets TCP_NODELAY so small control
	// frames — 12-byte barrier tokens, sub-MSS broadcast hops — are
	// never stalled on the Nagle/delayed-ACK interaction; disabling it
	// exists for batching experiments that want the kernel to coalesce
	// instead.
	DisableNoDelay bool
	// FlushThreshold, when positive, enables per-link small-frame
	// batching (a run field, consumed per Run call): back-to-back
	// frames to the same destination are coalesced in a per-link buffer
	// and written with one syscall when the buffer reaches the
	// threshold. Every pending buffer is flushed before the sender
	// blocks (Recv, a barrier wait, or the end of its algorithm
	// function), so the buffered-Send contract stays deadlock-free: a
	// processor never waits while holding bytes a peer needs to make
	// progress.
	FlushThreshold int
	// Ports, when positive, routes sends through per-destination link
	// drivers (a run field, consumed per Run call): one writer goroutine
	// per outbound connection with a bounded frame queue, gated by a
	// semaphore of Ports transmission tokens per rank. A rank with
	// several scheduled destinations then drives up to Ports links
	// concurrently instead of serially — the engine's model of the
	// paper's k-ported nodes. Ports=0 keeps the historical inline write
	// path. Mutually exclusive with FlushThreshold (the driver queue is
	// already the coalescing point).
	Ports int
	// Tracer, when non-nil, receives an obs.Event for every send, recv,
	// wait (a receive that had to block) and barrier, stamped with
	// wall-clock nanoseconds since the run started. The reader pumps
	// additionally stamp each data frame's arrival instant, so a traced
	// Recv carries Arrival — the time the frame reached this rank's
	// inbox — separating network latency from receiver lag. Events
	// arrive from all rank goroutines concurrently; the tracer must be
	// safe for concurrent use (trace.Recorder is).
	Tracer obs.Tracer
}

// abortError poisons inboxes when the machine fails. external marks
// context/deadline aborts (reported as root causes); otherwise the
// error is a secondary unwind of a failure first reported elsewhere.
type abortError struct {
	cause    error
	external bool
}

func (e *abortError) Error() string { return e.cause.Error() }
func (e *abortError) Unwrap() error { return e.cause }

// frameWireSize returns the encoded size of m on the wire.
func frameWireSize(m comm.Message) int {
	n := frameHdrLen + len(m.Parts)*partHdrLen
	for _, part := range m.Parts {
		n += len(part.Data)
	}
	return n
}

// appendFrame appends the wire encoding of m — the epoch-stamped frame
// header followed by each part's header and payload — to buf. It is the
// single encoder behind both the contiguous write path and the per-link
// batcher, and allocates only when buf must grow.
func appendFrame(buf []byte, epoch uint32, m comm.Message) []byte {
	buf = binary.BigEndian.AppendUint32(buf, epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.Tag)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(len(m.Parts))))
	for _, part := range m.Parts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(part.Origin)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(len(part.Data))))
		buf = append(buf, part.Data...)
	}
	return buf
}

// writeFrameTo writes one frame with at most one Write (or one vectored
// WriteTo) call, using sc's pooled storage. Small frames — the common
// case: barrier tokens, control traffic, early broadcast hops — are
// encoded contiguously into sc.flat and written once. Frames above
// contiguousLimit build a gather list in sc.bufs whose header segments
// live in sc.hdr and whose payload segments reference the message's
// buffers in place, then hand the whole list to net.Buffers.WriteTo —
// writev on a *net.TCPConn — so multi-part bundles cost one syscall and
// zero payload copies instead of the historical 2k+1 writes.
func writeFrameTo(w io.Writer, epoch uint32, m comm.Message, sc *frameScratch) error {
	size := frameWireSize(m)
	if size <= contiguousLimit {
		sc.flat = appendFrame(sc.flat[:0], epoch, m)
		_, err := w.Write(sc.flat)
		return err
	}
	// Pre-size the header storage: appends below must never reallocate,
	// or the gather list's earlier segments would point at a dead array.
	need := frameHdrLen + len(m.Parts)*partHdrLen
	if cap(sc.hdr) < need {
		sc.hdr = make([]byte, 0, need)
	}
	hdr := sc.hdr[:0]
	bufs := sc.bufs[:0]
	hdr = binary.BigEndian.AppendUint32(hdr, epoch)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(int32(m.Tag)))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(int32(len(m.Parts))))
	bufs = append(bufs, hdr[:frameHdrLen])
	for _, part := range m.Parts {
		start := len(hdr)
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(int32(part.Origin)))
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(int32(len(part.Data))))
		bufs = append(bufs, hdr[start:len(hdr)])
		if len(part.Data) > 0 {
			bufs = append(bufs, part.Data)
		}
	}
	sc.hdr, sc.bufs = hdr, bufs
	// WriteTo consumes (and on partial writes mutates) the list it is
	// given; hand it the scratch's consumable view so sc.bufs keeps its
	// backing array (for putScratch's reference clearing) and no slice
	// header escapes per write.
	sc.vec = bufs
	_, err := sc.vec.WriteTo(w)
	return err
}

// writeFrame writes one frame through a pooled scratch. It is the
// plain-io.Writer form of writeFrameTo for callers without a scratch of
// their own (tests, fuzzing); the engine hot path uses writeFrameTo.
func writeFrame(w io.Writer, epoch uint32, m comm.Message) error {
	sc := getScratch()
	err := writeFrameTo(w, epoch, m, sc)
	putScratch(sc)
	return err
}

// frameReader decodes the frames one peer sends to one local rank. The
// reader pumps keep one per connection end; it reads through a
// readBufSize buffer, so a small multi-part frame — which the writer put
// on the wire with one Write — costs one read instead of one per header
// and payload. Decoded storage is the consumer's from the start (see
// arena.go): the parts that fit the buffered window share one slab, and
// a part too large for the window is read straight from the socket into
// a buffer of its own. Corrupt frames are attributed to both ends of the
// link, honouring the contract that engine errors name the affected rank
// and its peer. Storage grows only as bytes actually arrive, so a corrupt
// header claiming maxParts parts cannot force a huge allocation up front.
type frameReader struct {
	br       *bufio.Reader
	src, dst int // sending peer's rank, receiving (local) rank
}

func newFrameReader(r io.Reader, src, dst int) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize), src: src, dst: dst}
}

func (fr *frameReader) read() (comm.Message, uint32, error) {
	hdr, err := fr.br.Peek(frameHdrLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return comm.Message{}, 0, err
	}
	epoch := binary.BigEndian.Uint32(hdr[0:])
	m := comm.Message{Tag: int(int32(binary.BigEndian.Uint32(hdr[4:])))}
	nparts := int(int32(binary.BigEndian.Uint32(hdr[8:])))
	if nparts < 0 || nparts > maxParts {
		return comm.Message{}, 0, fmt.Errorf("tcp: corrupt frame from rank %d at rank %d: %d parts", fr.src, fr.dst, nparts)
	}
	fr.br.Discard(frameHdrLen)
	if nparts > 0 {
		m.Parts = make([]comm.Part, 0, min(nparts, maxEagerParts))
	}
	for len(m.Parts) < nparts {
		if m.Parts, err = fr.readParts(m.Parts, nparts-len(m.Parts)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the stream ended inside a frame
			}
			return comm.Message{}, 0, err
		}
	}
	return m, epoch, nil
}

// readParts appends the next run of at most want parts to parts: every
// whole part (header and payload) the read buffer can hold at once is
// copied out of one buffered window into one shared slab; when not even
// the first fits, that part alone is read, into its own allocation.
func (fr *frameReader) readParts(parts []comm.Part, want int) ([]comm.Part, error) {
	// Walk the part headers to size the window; Peek blocks until the
	// bytes walked so far have arrived.
	window, payload, k := 0, 0, 0
	for k < want && window+partHdrLen <= readBufSize {
		b, err := fr.br.Peek(window + partHdrLen)
		if err != nil {
			return nil, err
		}
		n, err := fr.partLen(b[window:], len(parts)+k)
		if err != nil {
			return nil, err
		}
		if window+partHdrLen+n > readBufSize {
			break
		}
		window += partHdrLen + n
		payload += n
		k++
	}
	if k == 0 {
		hdr, err := fr.br.Peek(partHdrLen)
		if err != nil {
			return nil, err
		}
		origin := int(int32(binary.BigEndian.Uint32(hdr[0:])))
		n, err := fr.partLen(hdr, len(parts))
		if err != nil {
			return nil, err
		}
		fr.br.Discard(partHdrLen)
		data := make([]byte, n)
		if _, err := io.ReadFull(fr.br, data); err != nil {
			return nil, err
		}
		return append(parts, comm.Part{Origin: origin, Data: data}), nil
	}
	b, err := fr.br.Peek(window)
	if err != nil {
		return nil, err
	}
	slab := make([]byte, payload)
	for ; k > 0; k-- {
		origin := int(int32(binary.BigEndian.Uint32(b[0:])))
		n := int(int32(binary.BigEndian.Uint32(b[4:])))
		// Full slice expressions: an append through one part must not
		// bleed into the next part's bytes.
		data := slab[:n:n]
		copy(data, b[partHdrLen:])
		parts = append(parts, comm.Part{Origin: origin, Data: data})
		slab, b = slab[n:], b[partHdrLen+n:]
	}
	fr.br.Discard(window)
	return parts, nil
}

// partLen decodes and validates the length field of part i's header.
func (fr *frameReader) partLen(hdr []byte, i int) (int, error) {
	n := int(int32(binary.BigEndian.Uint32(hdr[4:])))
	if n < 0 || n > maxPartLen {
		return 0, fmt.Errorf("tcp: corrupt frame from rank %d at rank %d: part %d of %d bytes", fr.src, fr.dst, i, n)
	}
	return n, nil
}

// readFrame decodes one frame sent by rank src to rank dst: the
// one-shot form of frameReader for callers without a per-link reader of
// their own (tests, fuzzing). It may read past the frame's end.
func readFrame(r io.Reader, src, dst int) (comm.Message, uint32, error) {
	return newFrameReader(r, src, dst).read()
}

// writeFrameSeq is the pre-arena frame writer — one heap-allocated
// header plus 2k+1 sequential Writes per k-part frame. It is kept only
// as the measured baseline of the figTCPHotpath experiment; the engine
// never calls it.
func writeFrameSeq(w io.Writer, epoch uint32, m comm.Message) error {
	hdr := make([]byte, frameHdrLen)
	binary.BigEndian.PutUint32(hdr[0:], epoch)
	binary.BigEndian.PutUint32(hdr[4:], uint32(int32(m.Tag)))
	binary.BigEndian.PutUint32(hdr[8:], uint32(int32(len(m.Parts))))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	ph := make([]byte, partHdrLen)
	for _, part := range m.Parts {
		binary.BigEndian.PutUint32(ph[0:], uint32(int32(part.Origin)))
		binary.BigEndian.PutUint32(ph[4:], uint32(int32(len(part.Data))))
		if _, err := w.Write(ph); err != nil {
			return err
		}
		if _, err := w.Write(part.Data); err != nil {
			return err
		}
	}
	return nil
}

// runState is the per-run half of the machine: epoch, tracer and clock
// zero point, plus the abort latch. The reader pumps load it through
// state.run on every frame, so everything a pump needs to attribute or
// discard a frame is reached through one atomic pointer.
type runState struct {
	epoch   uint32
	tr      obs.Tracer
	start   time.Time // zero point of traced Wall stamps
	aborted atomic.Bool
	// arming is the run's handle on the machine's local barrier (see
	// comm.Rendezvous.Arm): an abort quotes it, so one that outlives the
	// run cannot poison the next run's barrier.
	arming uint64
	// ctx is the run's context (nil when the run has none): lazy dials
	// triggered by this run's sends bound their backoff waits and
	// endpoint waits by it, so a canceled run unwinds promptly instead
	// of sitting out handshakeTimeout inside ensureLink.
	ctx context.Context
}

// wall returns nanoseconds since the run started.
func (rs *runState) wall() int64 { return time.Since(rs.start).Nanoseconds() }

// wallIfTraced returns wall() on traced runs and 0 otherwise, so untraced
// hot paths skip the clock read.
func (rs *runState) wallIfTraced() int64 {
	if rs.tr == nil {
		return 0
	}
	return rs.wall()
}

// inbox is one processor's receive side: per-source data FIFOs plus
// per-source barrier-token counters (only a worker's leader rank ever
// receives tokens), under one lock. The reader pumps demultiplex by tag,
// so a queued barrier token can never be handed to algorithm code (and
// vice versa). Between runs the inbox is reset; push/pushBarrier/fail
// revalidate (under the lock) that the run they were read for is still
// current, which together with the pumps' epoch check makes cross-run
// frame bleed impossible even when a pump is descheduled between
// decoding a frame and delivering it.
type inbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	boxes    []comm.Queue
	barriers []int
	dead     error
	// waker wakes a blocked wait at its deadline. An inbox has one waiter
	// at a time, so one reusable timer serves every wait — and a receive
	// that finds its frame already queued never touches it.
	waker comm.DeadlineWaker
	// arrivals mirrors boxes with per-source FIFO queues of frame-arrival
	// wall stamps (ns since run start). Allocated only when the run is
	// traced; nil otherwise, so untraced runs pay nothing.
	arrivals []tsQueue
}

// tsQueue is a FIFO of int64 timestamps (slice plus head index; traced
// runs only, so the modest garbage of the grown slice is acceptable).
type tsQueue struct {
	buf  []int64
	head int
}

func (q *tsQueue) push(t int64) { q.buf = append(q.buf, t) }

func (q *tsQueue) pop() int64 {
	if q.head >= len(q.buf) {
		return 0
	}
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return t
}

// reset wipes the previous run's leftovers: queued frames, barrier
// tokens, the poison error, and the arrival stamps (reallocated only
// when the new run is traced).
func (ib *inbox) reset(traced bool) {
	ib.mu.Lock()
	for i := range ib.boxes {
		ib.boxes[i].Reset()
	}
	for i := range ib.barriers {
		ib.barriers[i] = 0
	}
	ib.dead = nil
	if traced {
		ib.arrivals = make([]tsQueue, len(ib.boxes))
	} else {
		ib.arrivals = nil
	}
	ib.mu.Unlock()
}

// push enqueues a data frame from src for run rs; ts is the arrival wall
// stamp, recorded only on traced runs. The frame is dropped if rs is no
// longer the current run (it ended while the frame was in flight).
func (ib *inbox) push(st *state, rs *runState, src int, m comm.Message, ts int64) {
	ib.mu.Lock()
	if st.run.Load() != rs {
		ib.mu.Unlock()
		return
	}
	ib.boxes[src].Push(m)
	if ib.arrivals != nil {
		ib.arrivals[src].push(ts)
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

func (ib *inbox) pushBarrier(st *state, rs *runState, src int) {
	ib.mu.Lock()
	if st.run.Load() != rs {
		ib.mu.Unlock()
		return
	}
	ib.barriers[src]++
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// fail poisons the inbox for run rs; it is a no-op once rs is stale so a
// late abort cannot poison the next run's mailbox.
func (ib *inbox) fail(st *state, rs *runState, err error) {
	ib.mu.Lock()
	if st.run.Load() == rs && ib.dead == nil {
		ib.dead = err
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// pending reports whether src has a barrier token (barrier) or a data
// frame queued.
func (ib *inbox) pending(src int, barrier bool) bool {
	if barrier {
		return ib.barriers[src] > 0
	}
	return ib.boxes[src].Len() > 0
}

// waitLocked blocks (mu held) until src has something pending, the inbox
// dies, or the timeout elapses.
func (ib *inbox) waitLocked(timeout time.Duration, src int, barrier bool) error {
	if ib.pending(src, barrier) {
		return nil
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		ib.waker.Arm(ib.cond, timeout)
		defer ib.waker.Stop()
	}
	for !ib.pending(src, barrier) {
		if ib.dead != nil {
			return ib.dead
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return fmt.Errorf("blocked %v (receive deadline exceeded)", timeout)
		}
		ib.cond.Wait()
	}
	return nil
}

// pop dequeues the next data frame from src, returning its arrival wall
// stamp (0 when the run is untraced) and whether the caller had to block.
func (ib *inbox) pop(src int, timeout time.Duration) (comm.Message, int64, bool, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	waited := ib.boxes[src].Len() == 0
	if err := ib.waitLocked(timeout, src, false); err != nil {
		return comm.Message{}, 0, waited, err
	}
	var ts int64
	if ib.arrivals != nil {
		ts = ib.arrivals[src].pop()
	}
	return ib.boxes[src].Pop(), ts, waited, nil
}

func (ib *inbox) popBarrier(src int, timeout time.Duration) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if err := ib.waitLocked(timeout, src, true); err != nil {
		return err
	}
	ib.barriers[src]--
	return nil
}

// state is the machine-wide lifecycle shared by all processors and
// reader pumps. closed marks session teardown (Close); broken marks a
// damaged mesh (an abort closed the connections — the next Run rebuilds
// it); run points at the current run, nil between runs, so the pumps can
// attribute every frame and every read error to the right run — or to
// none.
type state struct {
	procs []*Proc
	// bar is where the machine's local ranks meet in Barrier (see
	// Proc.Barrier for the cross-process half).
	bar    *comm.Rendezvous
	closed atomic.Bool
	broken atomic.Bool
	run    atomic.Pointer[runState]

	// connMu guards the connection table — conns (the flat list of every
	// live endpoint, for teardown) and each Proc's per-peer conns slice.
	// Registration happens under the write lock at setup time and on
	// lazy dials; the send/pump hot paths read through the read lock.
	// connCond (on the write lock) is broadcast on every registration,
	// state change and teardown so setup and lazy dials can wait for
	// both endpoints of a pair to be installed.
	connMu   sync.RWMutex
	connCond *sync.Cond
	conns    []net.Conn
}

// closeConns closes every connection endpoint; double closes are
// harmless, so abort, reconnect and Close may all call it.
func (st *state) closeConns() {
	st.connMu.Lock()
	for _, c := range st.conns {
		c.Close()
	}
	st.connCond.Broadcast()
	st.connMu.Unlock()
}

// abort fails every inbox and the local barrier of run rs with reason,
// marks the mesh broken, and closes all connections so blocked readers
// and writers unwind. The first abort of a run wins; an abort for a
// stale run still tears the damaged mesh down but cannot poison a newer
// run's mailboxes or barrier.
func (st *state) abort(rs *runState, reason *abortError) {
	if rs.aborted.Swap(true) {
		return
	}
	st.broken.Store(true)
	st.bar.Abort(rs.arming, reason)
	for _, pr := range st.procs {
		if pr == nil {
			continue // a cluster worker owns only its rank range
		}
		pr.in.fail(st, rs, reason)
	}
	st.closeConns()
}

// Proc is one processor's handle on the TCP machine. It implements
// comm.Comm; methods must only be called from the algorithm goroutine,
// during a Machine.Run.
type Proc struct {
	rank int
	size int
	// conns[peer] is nil at the own rank and on never-established links
	// (sparse machines dial lazily); guarded by st.connMu — rank
	// goroutines read through link(), registration writes under the
	// write lock.
	conns []net.Conn
	wmu   []sync.Mutex
	in    *inbox
	st    *state
	m     *Machine // lazy-dial fallback for unplanned links

	// Per-run fields, reset by beginRun under the machine lock (rank
	// goroutines only live inside Run, so no further synchronization).
	rs          *runState
	recvTimeout time.Duration
	iter        int
	phase       string

	// Small-frame batching (Options.FlushThreshold > 0): pend[dst]
	// accumulates encoded frames bound for dst; dirty lists destinations
	// with pending bytes (possibly with duplicates — flushPending skips
	// the already-empty ones). Touched only by the owning rank goroutine;
	// the eventual socket write still takes wmu[dst].
	flushLimit int
	pend       [][]byte
	dirty      []int

	// k-ported send path (Options.Ports > 0): one linkDriver per
	// destination this rank has sent to, spawned lazily by the rank
	// goroutine; portSem holds Ports transmission tokens. derr records
	// the first driver write failure so the owning rank — not just the
	// machine-wide abort — reports the root cause (see driver.go).
	ports   int
	portSem chan struct{}
	drivers []*linkDriver
	derr    atomic.Pointer[driverFault]

	sends, recvs               int
	sendBytes, recvBytes       int64
	barrierSends, barrierRecvs int
}

var _ comm.Comm = (*Proc)(nil)
var _ comm.IterMarker = (*Proc)(nil)
var _ comm.PhaseMarker = (*Proc)(nil)

// beginRun resets the per-run half of the processor: a wiped inbox,
// fresh counters, and the new run's state/deadline/batching threshold.
func (p *Proc) beginRun(rs *runState, recvTimeout time.Duration, flushLimit, ports int) {
	p.in.reset(rs.tr != nil)
	p.rs = rs
	p.recvTimeout = recvTimeout
	p.flushLimit = flushLimit
	if flushLimit > 0 && p.pend == nil {
		p.pend = make([][]byte, p.size)
	}
	for i := range p.pend {
		p.pend[i] = p.pend[i][:0] // drop leftovers of an aborted run
	}
	p.dirty = p.dirty[:0]
	p.ports = ports
	p.derr.Store(nil)
	if ports > 0 {
		if cap(p.portSem) != ports {
			p.portSem = make(chan struct{}, ports)
		}
		if p.drivers == nil {
			p.drivers = make([]*linkDriver, p.size)
		}
		for i := range p.drivers {
			p.drivers[i] = nil // stopDrivers already joined the old ones
		}
	}
	p.iter, p.phase = -1, ""
	p.sends, p.recvs = 0, 0
	p.sendBytes, p.recvBytes = 0, 0
	p.barrierSends, p.barrierRecvs = 0, 0
}

// BeginIter implements comm.IterMarker: traced events carry the iteration.
func (p *Proc) BeginIter(i int) { p.iter = i }

// BeginPhase implements comm.PhaseMarker: traced events carry the label.
func (p *Proc) BeginPhase(name string) { p.phase = name }

// Rank implements comm.Comm.
func (p *Proc) Rank() int { return p.rank }

// Size implements comm.Comm.
func (p *Proc) Size() int { return p.size }

// writeTo frames m onto the pair's socket stamped with the run's epoch —
// one Write (or vectored WriteTo) per frame through pooled scratch — or,
// when batching is on, into the link's pending buffer. Failures are
// classified: a write error after the run aborted is a secondary unwind,
// not a root cause.
func (p *Proc) writeTo(dst int, m comm.Message) {
	if p.ports > 0 {
		p.enqueue(dst, m)
		return
	}
	if p.flushLimit > 0 {
		p.bufferFrame(dst, m)
		return
	}
	conn, err := p.link(dst)
	if err != nil {
		p.sendFail(dst, err)
	}
	sc := getScratch()
	p.wmu[dst].Lock()
	err = writeFrameTo(conn, p.rs.epoch, m, sc)
	p.wmu[dst].Unlock()
	putScratch(sc)
	if err != nil {
		p.sendFail(dst, err)
	}
}

// link returns the connection to dst, dialing it on demand when the
// machine's planned link set did not include it. The fast path is one
// read-locked table load; the slow path is the machine's serialized
// lazy dial.
func (p *Proc) link(dst int) (net.Conn, error) {
	p.st.connMu.RLock()
	c := p.conns[dst]
	p.st.connMu.RUnlock()
	if c != nil {
		return c, nil
	}
	return p.m.ensureLink(p.rs.ctx, p.rank, dst)
}

// sendFail panics out of a failed socket write with the abort
// classification writeTo documents.
func (p *Proc) sendFail(dst int, err error) {
	serr := fmt.Errorf("send to %d: %w", dst, err)
	if p.rs.aborted.Load() {
		panic(&abortError{cause: serr})
	}
	panic(serr)
}

// bufferFrame appends m's encoding to dst's pending buffer, flushing it
// once it reaches the run's threshold.
func (p *Proc) bufferFrame(dst int, m comm.Message) {
	if len(p.pend[dst]) == 0 {
		p.dirty = append(p.dirty, dst)
	}
	p.pend[dst] = appendFrame(p.pend[dst], p.rs.epoch, m)
	if len(p.pend[dst]) >= p.flushLimit {
		p.flushDst(dst)
	}
}

// flushDst writes dst's pending buffer with one syscall.
func (p *Proc) flushDst(dst int) {
	buf := p.pend[dst]
	if len(buf) == 0 {
		return
	}
	conn, err := p.link(dst)
	if err != nil {
		p.pend[dst] = buf[:0]
		p.sendFail(dst, err)
	}
	p.wmu[dst].Lock()
	_, err = conn.Write(buf)
	p.wmu[dst].Unlock()
	p.pend[dst] = buf[:0]
	if err != nil {
		p.sendFail(dst, err)
	}
}

// flushPending writes out every link's pending buffer. It is called
// before every blocking operation (Recv, barrier waits) and when the
// rank's algorithm function returns, so batching can never withhold a
// frame from a peer while this rank waits.
func (p *Proc) flushPending() {
	if len(p.dirty) == 0 {
		return
	}
	for _, dst := range p.dirty {
		p.flushDst(dst)
	}
	p.dirty = p.dirty[:0]
}

// Send implements comm.Comm: frame the message onto the pair's socket.
// Self-sends short-circuit through the local inbox.
func (p *Proc) Send(dst int, m comm.Message) {
	if dst < 0 || dst >= p.size {
		panic(fmt.Sprintf("tcp: rank %d sends to invalid rank %d", p.rank, dst))
	}
	if m.Tag == barrierTag {
		panic(fmt.Sprintf("tcp: rank %d sends message with reserved barrier tag %d", p.rank, m.Tag))
	}
	p.sends++
	p.sendBytes += int64(m.Len())
	var t0 time.Time
	if p.rs.tr != nil {
		t0 = time.Now()
	}
	if dst == p.rank {
		p.in.push(p.st, p.rs, p.rank, m, p.rs.wallIfTraced())
	} else {
		p.writeTo(dst, m)
	}
	if p.rs.tr != nil {
		p.rs.tr.Trace(obs.Event{
			Kind: obs.KindSend, Rank: p.rank, Peer: dst, Bytes: m.Len(),
			Parts: len(m.Parts), Tag: m.Tag, Wall: p.rs.wall(),
			Dur: network.Time(time.Since(t0).Nanoseconds()), Iter: p.iter, Phase: p.phase,
		})
	}
}

// Recv implements comm.Comm. With Options.RecvTimeout set, a wait
// exceeding the timeout aborts the run with an error naming this rank
// and src.
func (p *Proc) Recv(src int) comm.Message {
	if src < 0 || src >= p.size {
		panic(fmt.Sprintf("tcp: rank %d receives from invalid rank %d", p.rank, src))
	}
	p.flushPending() // a blocked Recv must never hold undelivered frames
	var t0 time.Time
	if p.rs.tr != nil {
		t0 = time.Now()
	}
	m, arrival, waited, err := p.in.pop(src, p.recvTimeout)
	if err != nil {
		panic(fmt.Errorf("recv from %d: %w", src, err))
	}
	p.recvs++
	p.recvBytes += int64(m.Len())
	if p.rs.tr != nil {
		wall := p.rs.wall()
		spent := network.Time(time.Since(t0).Nanoseconds())
		if waited {
			p.rs.tr.Trace(obs.Event{
				Kind: obs.KindWait, Rank: p.rank, Peer: src, Wall: wall,
				Dur: spent, Arrival: network.Time(arrival), Iter: p.iter, Phase: p.phase,
			})
			spent = 0 // the blocked span is the wait slice, not the recv
		}
		p.rs.tr.Trace(obs.Event{
			Kind: obs.KindRecv, Rank: p.rank, Peer: src, Bytes: m.Len(),
			Parts: len(m.Parts), Tag: m.Tag, Wall: wall, Dur: spent,
			Arrival: network.Time(arrival), Iter: p.iter, Phase: p.phase,
		})
	}
	return m
}

// Barrier implements comm.Comm in two levels, after the k-lane model of
// processors sharing a node: the ranks one process owns meet in memory
// (comm.Rendezvous), and on a cluster worker the last of them to arrive
// then takes the worker's leader rank through a dissemination barrier
// with the other workers' leaders (crossBarrier) before anyone is
// released. A single-process machine is the one-worker case: no rounds,
// no frames. Barrier tokens bypass Send/Recv and their counters — they
// are transport overhead, metered apart in ProcStats — so algorithm
// operation counts agree with the live engine.
func (p *Proc) Barrier() {
	var t0 time.Time
	if p.rs.tr != nil {
		t0 = time.Now()
	}
	p.flushPending() // a parked rank must never hold undelivered frames
	if err := p.st.bar.Wait(p.rank, p.recvTimeout, p.m.cross); err != nil {
		panic(fmt.Errorf("barrier: %w", err))
	}
	if p.rs.tr != nil {
		p.rs.tr.Trace(obs.Event{
			Kind: obs.KindBarrier, Rank: p.rank, Peer: -1, Wall: p.rs.wall(),
			Dur: network.Time(time.Since(t0).Nanoseconds()), Iter: p.iter, Phase: p.phase,
		})
	}
}

// LeaderLinks returns the directed links the cross-process level of the
// barrier sends its tokens over: ⌈log2 W⌉ dissemination rounds among the
// W workers' leader ranks, leader i to leader (i+2^j) mod W in round j.
// The cluster coordinator adds them to the plan it partitions, so a
// sparse cluster mesh dials them up front like any schedule link.
func LeaderLinks(leaders []int) [][2]int {
	var links [][2]int
	for k := 1; k < len(leaders); k <<= 1 {
		for i, l := range leaders {
			links = append(links, [2]int{l, leaders[(i+k)%len(leaders)]})
		}
	}
	return links
}

// crossBarrier is the cross-process level of Barrier, run by the last
// local arriver on behalf of the machine's leader rank while every local
// rank — the leader included — is parked: one epoch-stamped token out
// and one in per LeaderLinks round. Failures come back as errors naming
// the leader (the caller is usually some other rank).
func (m *Machine) crossBarrier() (err error) {
	ld := m.procs[m.lo]
	defer func() {
		// The leader's send path reports failures by panicking.
		if r := recover(); r != nil {
			rerr, ok := r.(error)
			if !ok {
				rerr = fmt.Errorf("%v", r)
			}
			err = fmt.Errorf("leader rank %d: %w", ld.rank, rerr)
		}
	}()
	w, n := sort.SearchInts(m.leaders, m.lo), len(m.leaders)
	for k := 1; k < n; k <<= 1 {
		dst, src := m.leaders[(w+k)%n], m.leaders[(w-k+n)%n]
		ld.barrierSends++
		ld.writeTo(dst, comm.Message{Tag: barrierTag})
		ld.flushPending() // the token must be on the wire before we wait
		if err := ld.in.popBarrier(src, ld.recvTimeout); err != nil {
			return fmt.Errorf("leader rank %d: token from leader rank %d: %w", ld.rank, src, err)
		}
		ld.barrierRecvs++
	}
	return nil
}

// ProcStats counts one processor's operations. Sends/Recvs and the byte
// counters cover algorithm traffic only; barrier tokens are counted
// apart so stats agree with the live engine.
type ProcStats struct {
	Rank      int
	Sends     int
	Recvs     int
	SendBytes int64
	RecvBytes int64
	// BarrierSends/BarrierRecvs count the barrier tokens this rank put on
	// and took off the wire (transport overhead, excluded from the fields
	// above). Ranks of one process meet in memory, so both are 0 on a
	// single-process machine; on a cluster worker only the leader (lowest
	// local) rank exchanges tokens, ⌈log2 W⌉ per barrier for W workers.
	BarrierSends int
	BarrierRecvs int
}

// Result is the outcome of a TCP run.
type Result struct {
	// Elapsed is the wall-clock duration of the algorithm phase
	// (connection setup excluded).
	Elapsed time.Duration
	// Procs holds per-processor operation counts — every rank on a
	// single-process machine, only the local rank range on a cluster
	// worker (each entry's Rank field identifies it; the coordinator
	// merges the workers' slices).
	Procs []ProcStats
}

// Machine is a persistent loopback TCP machine: p listeners with
// persistent acceptors, a dialed mesh — full by default, or only the
// planned pairs when built with Options.Links — and one reader pump per
// connection end, built once by NewMachine and reused by every Run.
// Close tears it down. Run and Close serialize; a Machine supports one
// run at a time.
type Machine struct {
	size int
	// lo/hi bound the contiguous rank range this process owns: [0,size)
	// for the historical single-process machine, a worker's slice for a
	// cluster partial machine (NewWorkerMachine). listeners and procs
	// are indexed by rank and nil outside [lo,hi).
	lo, hi int
	// leaders holds the lowest rank of every process sharing the mesh,
	// ascending — just {0} on a single-process machine. cross is
	// crossBarrier, bound once so Barrier does not allocate a method
	// value per call.
	leaders   []int
	cross     func() error
	mu        sync.Mutex // serializes Run, Close and mesh rebuilds
	listeners []net.Listener
	procs     []*Proc
	st        *state
	pumps     sync.WaitGroup
	acceptors sync.WaitGroup

	dial           func(addr string) (net.Conn, error)
	dialAttempts   int
	dialBackoff    time.Duration
	disableNoDelay bool
	listenHost     string
	// addrs maps remote ranks (outside [lo,hi)) to their listener
	// addresses, distributed by the cluster coordinator before
	// ConnectMesh; guarded by st.connMu. Local ranks resolve through
	// their own listeners.
	addrs map[int]string

	// pairs is the planned link set as sorted unordered peer pairs
	// (a<b): every pair in it is dialed at setup and redialed on
	// reconnect; anything else waits for a lazy dial. sparse records
	// whether Options.Links was given (for Stats/diagnostics; the full
	// mesh is just the complete pair set).
	pairs  [][2]int
	sparse bool
	// connsOpened counts TCP connections dialed over the machine's
	// lifetime (setup, lazy and reconnect dials; one per connection, not
	// per endpoint).
	connsOpened atomic.Int64
	// lazyMu guards lazyInflight, the per-pair singleflight table of
	// on-demand dials: two ranks racing to open the same unplanned pair
	// (either direction) converge on one dial, while dials of distinct
	// pairs proceed concurrently — one unreachable peer must not
	// head-of-line-block every other lazy dial on the machine.
	lazyMu       sync.Mutex
	lazyInflight map[[2]int]*lazyCall
	// lazyDials counts on-demand dials actually performed — the sends
	// the route plan missed. A sparse cluster run that stays at zero
	// proves the partitioned plan covered every link the schedule used.
	lazyDials atomic.Int64
	setupErr  error // first setup failure, under st.connMu

	epoch      uint32
	reconnects atomic.Int64
	closed     bool
	dead       error // a failed mesh rebuild poisons the machine
}

// NewMachine listens on p loopback ports, dials the planned link set —
// the full mesh by default, only the pairs Options.Links needs when
// given — and starts the reader pumps. Only the setup fields of opts
// are consumed (Dial, DialAttempts, DialBackoff, Links, ListenHost,
// plus Context to cancel setup); they are remembered for mesh rebuilds
// after an abort. The caller owns the machine and must Close it.
func NewMachine(p int, opts Options) (*Machine, error) {
	m, err := newMachine(p, 0, p, []int{0}, opts)
	if err != nil {
		return nil, err
	}
	if err := m.connectLocked(opts.Context); err != nil {
		for _, ln := range m.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		m.acceptors.Wait()
		return nil, err
	}
	return m, nil
}

// NewWorkerMachine builds the partial machine a cluster worker owns:
// listeners, procs and acceptors for the contiguous rank range [lo,hi)
// of a p-rank mesh, but no connections yet — the coordinator first
// collects every worker's LocalAddrs, then drives ConnectMesh with the
// merged rank→address map. The planned link set (Options.Links, or the
// full mesh when nil) is filtered to the pairs touching [lo,hi); the
// worker dials exactly those whose higher rank is local. leaders lists
// the lowest rank of every worker's range, ascending (lo among them):
// Barrier synchronises across processes through those ranks, over the
// LeaderLinks the coordinator adds to the plan.
func NewWorkerMachine(p, lo, hi int, leaders []int, opts Options) (*Machine, error) {
	if lo < 0 || hi > p || lo >= hi {
		return nil, fmt.Errorf("tcp: worker rank range [%d,%d) outside machine of %d ranks", lo, hi, p)
	}
	w := sort.SearchInts(leaders, lo)
	if !sort.IntsAreSorted(leaders) || w == len(leaders) || leaders[w] != lo || leaders[0] < 0 || leaders[len(leaders)-1] >= p {
		return nil, fmt.Errorf("tcp: worker range [%d,%d) of %d ranks is not led by one of the leader ranks %v", lo, hi, p, leaders)
	}
	return newMachine(p, lo, hi, leaders, opts)
}

// newMachine allocates the machine, binds the local ranks' listeners
// and starts their persistent acceptors; it does not connect.
func newMachine(p, lo, hi int, leaders []int, opts Options) (*Machine, error) {
	if p <= 0 {
		return nil, fmt.Errorf("tcp: non-positive processor count %d", p)
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	attempts := opts.DialAttempts
	if attempts <= 0 {
		attempts = defaultDialAttempts
	}
	backoff := opts.DialBackoff
	if backoff <= 0 {
		backoff = defaultDialBackoff
	}
	host := opts.ListenHost
	if host == "" {
		host = "127.0.0.1"
	}
	pairs, sparse, err := plannedPairs(p, opts.Links)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		size: p, lo: lo, hi: hi, leaders: leaders,
		st:        &state{bar: comm.NewRendezvous(lo, hi)},
		listeners: make([]net.Listener, p), procs: make([]*Proc, p),
		dial: dial, dialAttempts: attempts, dialBackoff: backoff,
		disableNoDelay: opts.DisableNoDelay, listenHost: host,
		sparse:       sparse,
		lazyInflight: make(map[[2]int]*lazyCall),
	}
	// A partial machine only dials and waits for the pairs that touch
	// its own rank range; the rest belong to other workers.
	for _, pr := range pairs {
		if m.isLocal(pr[0]) || m.isLocal(pr[1]) {
			m.pairs = append(m.pairs, pr)
		}
	}
	m.cross = m.crossBarrier
	m.st.procs = m.procs
	m.st.connCond = sync.NewCond(&m.st.connMu)
	for i := lo; i < hi; i++ {
		ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			for _, l := range m.listeners[lo:i] {
				l.Close()
			}
			return nil, fmt.Errorf("tcp: listen for rank %d: %w", i, err)
		}
		m.listeners[i] = ln
		in := &inbox{boxes: make([]comm.Queue, p), barriers: make([]int, p)}
		in.cond = sync.NewCond(&in.mu)
		m.procs[i] = &Proc{
			rank: i, size: p, conns: make([]net.Conn, p),
			wmu: make([]sync.Mutex, p),
			in:  in, st: m.st, m: m, iter: -1,
		}
	}
	// Persistent acceptors: every local rank keeps accepting for the
	// machine's lifetime, so planned setup, reconnects and lazy dials
	// all land on the same registration path. They exit when the
	// listeners close (Close, or a fatal setup failure).
	for j := lo; j < hi; j++ {
		m.acceptors.Add(1)
		go m.acceptLoop(j)
	}
	return m, nil
}

// isLocal reports whether rank r lives in this process.
func (m *Machine) isLocal(r int) bool { return r >= m.lo && r < m.hi }

// partial reports whether the machine owns only a slice of the mesh.
func (m *Machine) partial() bool { return m.lo != 0 || m.hi != m.size }

// LocalAddrs returns the listener address of every local rank — what a
// cluster worker reports to the coordinator for the merged rank→address
// map.
func (m *Machine) LocalAddrs() map[int]string {
	addrs := make(map[int]string, m.hi-m.lo)
	for i := m.lo; i < m.hi; i++ {
		addrs[i] = m.listeners[i].Addr().String()
	}
	return addrs
}

// ConnectMesh dials this machine's share of the planned link set: every
// planned pair whose higher rank is local, resolving remote ranks
// through addrs (merged into the table kept from earlier calls; pass
// nil to reuse it, as coordinator-driven reconnects do). It returns
// once every planned pair touching the local range has both local
// endpoints installed. On failure the listeners are closed and the
// machine is dead.
func (m *Machine) ConnectMesh(ctx context.Context, addrs map[int]string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		if m.dead != nil {
			return m.dead
		}
		return errors.New("tcp: ConnectMesh on closed machine")
	}
	if len(addrs) > 0 {
		m.st.connMu.Lock()
		if m.addrs == nil {
			m.addrs = make(map[int]string, len(addrs))
		}
		for r, a := range addrs {
			if !m.isLocal(r) {
				m.addrs[r] = a
			}
		}
		m.st.connMu.Unlock()
	}
	if err := m.connectLocked(ctx); err != nil {
		m.closed = true
		m.dead = fmt.Errorf("tcp: mesh connect failed: %w", err)
		m.st.closed.Store(true)
		m.st.closeConns()
		m.pumps.Wait()
		return m.dead
	}
	return nil
}

// ResetMesh tears the connections down and joins the pumps, clearing a
// broken mark, but keeps listeners, acceptors and the address table: the
// cluster coordinator resets every worker before reconnecting any, so a
// redial can never race a peer that still considers the mesh broken.
func (m *Machine) ResetMesh() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("tcp: ResetMesh on closed machine")
	}
	m.st.closeConns()
	m.pumps.Wait()
	m.clearTable()
	m.st.broken.Store(false)
	return nil
}

// Broken reports whether the mesh is marked damaged (an abort or a
// between-runs connection failure closed the connections). A
// single-process machine repairs itself on the next Run; a cluster
// worker reports the mark to the coordinator, which drives the
// ResetMesh/ConnectMesh recovery across all workers.
func (m *Machine) Broken() bool { return m.st.broken.Load() }

// LazyDials reports how many on-demand (unplanned) dials the machine
// has performed over its lifetime. Zero on a sparse machine means the
// route plan covered every link the schedules used.
func (m *Machine) LazyDials() int { return int(m.lazyDials.Load()) }

// addrOf resolves the listener address of rank dst: its own listener
// when local, the coordinator-distributed table otherwise.
func (m *Machine) addrOf(dst int) (string, error) {
	if m.isLocal(dst) {
		return m.listeners[dst].Addr().String(), nil
	}
	m.st.connMu.RLock()
	addr, ok := m.addrs[dst]
	m.st.connMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("tcp: no address known for remote rank %d", dst)
	}
	return addr, nil
}

// plannedPairs normalizes a directed link list into the sorted,
// deduplicated unordered peer pairs (a<b) the mesh must dial. A nil
// list plans the full mesh.
func plannedPairs(p int, links [][2]int) ([][2]int, bool, error) {
	if links == nil {
		pairs := make([][2]int, 0, p*(p-1)/2)
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		return pairs, false, nil
	}
	seen := make(map[[2]int]struct{}, len(links))
	pairs := make([][2]int, 0, len(links))
	for _, l := range links {
		a, b := l[0], l[1]
		if a < 0 || a >= p || b < 0 || b >= p {
			return nil, false, fmt.Errorf("tcp: planned link %d→%d outside machine of %d ranks", a, b, p)
		}
		if a == b {
			continue // self sends never touch a socket
		}
		if a > b {
			a, b = b, a
		}
		pr := [2]int{a, b}
		if _, dup := seen[pr]; dup {
			continue
		}
		seen[pr] = struct{}{}
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs, true, nil
}

// Size returns the processor count the machine was built for.
func (m *Machine) Size() int { return m.size }

// Reconnects reports how many times the mesh has been rebuilt after an
// abort or a between-runs connection failure. It is safe to call at any
// time, including concurrently with a run in flight — it reads an atomic
// counter and never waits on the machine's run lock.
func (m *Machine) Reconnects() int {
	return int(m.reconnects.Load())
}

// ConnsOpened reports how many TCP connections the machine has dialed
// over its lifetime — planned setup, reconnect rebuilds and lazy
// on-demand dials, one count per connection (not per endpoint). On a
// sparse machine straight after NewMachine this equals the planned pair
// count; on a full mesh it is p(p−1)/2. Safe to call at any time.
func (m *Machine) ConnsOpened() int {
	return int(m.connsOpened.Load())
}

// PlannedPairs reports how many unordered peer pairs the machine dials
// at setup (and redials on reconnect): the route-derived pair count on
// a sparse machine, p(p−1)/2 on a full mesh.
func (m *Machine) PlannedPairs() int { return len(m.pairs) }

// Sparse reports whether the machine was built with an explicit link
// plan (Options.Links) instead of the full mesh.
func (m *Machine) Sparse() bool { return m.sparse }

// Close tears the machine down: listeners and connections are closed and
// the reader pumps joined. Close is idempotent; a run must not be in
// flight.
func (m *Machine) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.st.closed.Store(true)
	for _, ln := range m.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	m.st.closeConns()
	m.pumps.Wait()
	m.acceptors.Wait()
	return nil
}

// Run executes fn on every processor over the warm mesh, rebuilding it
// first if a previous run's abort damaged it. Only the run fields of
// opts are consumed (Context, RunTimeout, RecvTimeout, Tracer); each
// call may pass different ones. A panic on any processor aborts the run
// and is returned as an error; the machine remains usable — the next Run
// reconnects.
func (m *Machine) Run(opts Options, fn func(*Proc)) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		if m.dead != nil {
			return nil, m.dead
		}
		return nil, errors.New("tcp: Run on closed machine")
	}
	if opts.Ports < 0 {
		return nil, fmt.Errorf("tcp: negative Ports %d", opts.Ports)
	}
	if opts.Ports > 0 && opts.FlushThreshold > 0 {
		return nil, errors.New("tcp: Ports and FlushThreshold are mutually exclusive (the driver queue is the coalescing point)")
	}
	if m.st.broken.Load() {
		if m.partial() {
			// A worker must never redial on its own: its peers may still
			// consider the mesh broken and refuse registrations. The
			// coordinator resets every worker, reconnects every worker,
			// then retries the run.
			return nil, errors.New("tcp: mesh broken; awaiting coordinator reset")
		}
		if err := m.reconnect(opts.Context); err != nil {
			// The failed rebuild closed the listeners; the machine is
			// beyond repair and every future Run reports why.
			m.closed = true
			m.dead = fmt.Errorf("tcp: mesh rebuild failed: %w", err)
			m.st.closed.Store(true)
			m.st.closeConns()
			m.pumps.Wait()
			return nil, m.dead
		}
	}

	if opts.Epoch != 0 {
		// Cluster runs: the coordinator assigns one epoch to every
		// worker so frames demultiplex consistently across processes.
		m.epoch = opts.Epoch
	} else {
		m.epoch++
	}
	rs := &runState{epoch: m.epoch, tr: opts.Tracer, ctx: opts.Context, arming: m.st.bar.Arm()}
	p := m.size
	for i := m.lo; i < m.hi; i++ {
		m.procs[i].beginRun(rs, opts.RecvTimeout, opts.FlushThreshold, opts.Ports)
	}
	rs.start = time.Now()
	// Inboxes are wiped and stamped for the new run; only now do the
	// pumps start delivering (current-epoch) frames.
	m.st.run.Store(rs)

	// External abort sources: context cancellation and the whole-run
	// deadline.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	var ctxDone <-chan struct{}
	if opts.Context != nil {
		ctxDone = opts.Context.Done()
	}
	var runTimer *time.Timer
	var runTimeoutC <-chan time.Time
	if opts.RunTimeout > 0 {
		runTimer = time.NewTimer(opts.RunTimeout)
		runTimeoutC = runTimer.C
	}
	if ctxDone != nil || runTimeoutC != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-ctxDone:
				m.st.abort(rs, &abortError{cause: fmt.Errorf("run canceled: %w", opts.Context.Err()), external: true})
			case <-runTimeoutC:
				m.st.abort(rs, &abortError{cause: fmt.Errorf("run exceeded %v deadline", opts.RunTimeout), external: true})
			case <-watchDone:
			}
		}()
	}

	// The start gate runs after the mailboxes armed but before any rank
	// executes: a cluster worker acks the coordinator here and blocks
	// until the whole cluster is armed, so no frame can reach a process
	// that would still discard it as stale.
	if opts.StartGate != nil {
		if err := opts.StartGate(); err != nil {
			m.st.abort(rs, &abortError{cause: fmt.Errorf("run start aborted: %w", err), external: true})
			m.st.run.Store(nil)
			close(watchDone)
			if runTimer != nil {
				runTimer.Stop()
			}
			watchWG.Wait()
			return nil, fmt.Errorf("tcp: run start aborted: %w", err)
		}
	}

	// roots collects root-cause failures (panics, deadline overruns,
	// broken connections, cancellation); unwinds collects processors
	// that merely unwound after someone else failed. Roots take
	// precedence in the returned error.
	roots := make([]error, p)
	unwinds := make([]error, p)
	var wg sync.WaitGroup
	start := time.Now()
	for i := m.lo; i < m.hi; i++ {
		pr := m.procs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					rerr, ok := r.(error)
					if !ok {
						rerr = fmt.Errorf("%v", r)
					}
					var ab *abortError
					if errors.As(rerr, &ab) && !ab.external {
						unwinds[pr.rank] = fmt.Errorf("tcp: rank %d unwound: %w", pr.rank, rerr)
						return
					}
					roots[pr.rank] = fmt.Errorf("tcp: rank %d: %w", pr.rank, rerr)
					// Fail fast: poison every inbox and close the
					// connections so blocked peers unwind instead of
					// hanging on a dead processor.
					m.st.abort(rs, &abortError{cause: fmt.Errorf("machine aborted by rank %d", pr.rank)})
				}
			}()
			// Whatever happens — including a panic in fn — the link
			// drivers must be joined before the rank retires, or a
			// driver could outlive the run's epoch. Registered before
			// the recover handler runs (LIFO).
			defer pr.stopDrivers()
			fn(pr)
			// Frames batched behind the algorithm's last sends still
			// belong to peers; push them out before the rank retires
			// (inside the recover scope — a flush failure aborts the
			// run like any other send failure).
			pr.flushPending()
			// Likewise every queued driver frame: join the drivers, then
			// surface the first driver failure as this rank's own error
			// (the driver goroutine could not panic on our behalf).
			pr.stopDrivers()
			if df := pr.derr.Load(); df != nil {
				panic(df.err)
			}
		}()
	}
	wg.Wait()
	// The run is over: pumps must stop delivering into its mailboxes
	// (late frames are dropped until the next run opens a new epoch).
	m.st.run.Store(nil)
	close(watchDone)
	if runTimer != nil {
		runTimer.Stop()
	}
	watchWG.Wait()
	res := &Result{Elapsed: time.Since(start), Procs: make([]ProcStats, 0, m.hi-m.lo)}
	for i := m.lo; i < m.hi; i++ {
		pr := m.procs[i]
		res.Procs = append(res.Procs, ProcStats{
			Rank: i, Sends: pr.sends, Recvs: pr.recvs,
			SendBytes: pr.sendBytes, RecvBytes: pr.recvBytes,
			BarrierSends: pr.barrierSends, BarrierRecvs: pr.barrierRecvs,
		})
	}
	for _, e := range roots {
		if e != nil {
			return nil, e
		}
	}
	for _, e := range unwinds {
		if e != nil {
			return nil, e
		}
	}
	return res, nil
}

// reconnect rebuilds the planned link set — not the full mesh — over
// the still-open listeners after an abort closed the connections: the
// orphaned pumps are joined first so no stale goroutine can touch the
// new mesh, then exactly the pairs the machine was planned with are
// redialed (lazily opened extras from the previous life wait for their
// next on-demand dial).
func (m *Machine) reconnect(ctx context.Context) error {
	m.st.closeConns()
	m.pumps.Wait()
	m.clearTable()
	m.st.broken.Store(false)
	if err := m.connectLocked(ctx); err != nil {
		return err
	}
	m.reconnects.Add(1)
	return nil
}

// clearTable wipes the connection table and endpoint list after the
// pumps are joined; the next connect or lazy dial repopulates it.
func (m *Machine) clearTable() {
	m.st.connMu.Lock()
	m.st.conns = nil
	for _, pr := range m.procs {
		if pr == nil {
			continue
		}
		for k := range pr.conns {
			pr.conns[k] = nil
		}
	}
	m.st.connMu.Unlock()
}

// acceptLoop is rank j's persistent acceptor: it admits connections for
// the machine's lifetime — planned setup dials, reconnect redials and
// lazy on-demand dials all arrive here — and exits when the listener
// closes (Close, or a fatal setup failure).
func (m *Machine) acceptLoop(j int) {
	defer m.acceptors.Done()
	for {
		conn, err := m.listeners[j].Accept()
		if err != nil {
			return
		}
		// The handshake read can block for up to handshakeTimeout; admit
		// concurrently so one dead dialer cannot stall every other
		// connection to this rank.
		go m.admit(j, conn)
	}
}

// admit reads the dialer's rank announcement and registers the accepted
// endpoint. A connection that fails the handshake is dropped, not
// fatal: the dialer's own error path (or the setup wait's deadline)
// reports the failure with better attribution.
func (m *Machine) admit(j int, conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	peer := int(int32(binary.BigEndian.Uint32(hs[:])))
	if peer < 0 || peer >= m.size || peer == j {
		conn.Close()
		return
	}
	m.applyNoDelay(conn)
	if !m.register(j, peer, conn, false) {
		conn.Close()
	}
}

// register installs one connection endpoint in the table and starts its
// reader pump, broadcasting to anyone waiting for the pair to complete.
// It refuses — and the caller must close the connection — when the mesh
// is closed or broken (a racing teardown). When the slot is already
// filled (a duplicate: across processes, both sides of a pair can lazily
// dial each other at once and neither dialer can see the other's table),
// the established connection keeps the slot — and the pair's FIFO send
// order — but the duplicate is still pumped receive-only: the remote
// process may have installed it as its send path, so refusing it would
// lose frames. dialed marks the dialing end, counted once per connection
// in ConnsOpened.
func (m *Machine) register(owner, peer int, conn net.Conn, dialed bool) bool {
	st := m.st
	st.connMu.Lock()
	defer st.connMu.Unlock()
	if st.closed.Load() || st.broken.Load() {
		return false
	}
	if dialed {
		m.connsOpened.Add(1)
	}
	if m.procs[owner].conns[peer] == nil {
		m.procs[owner].conns[peer] = conn
	}
	st.conns = append(st.conns, conn)
	m.pumps.Add(1)
	go m.pump(m.procs[owner], peer, conn)
	st.connCond.Broadcast()
	return true
}

// setupFail records the first setup error and closes the listeners so
// everything still blocked — acceptors, the pair wait — unwinds. After
// it, the machine is beyond repair (NewMachine returns the error; a
// failed rebuild poisons the session), which matches the historical
// full-mesh behaviour.
func (m *Machine) setupFail(err error) {
	m.st.connMu.Lock()
	if m.setupErr == nil {
		m.setupErr = err
	}
	m.st.connCond.Broadcast()
	m.st.connMu.Unlock()
	for _, ln := range m.listeners {
		if ln != nil {
			ln.Close()
		}
	}
}

// dialRetry dials rank dst — the local listener's address, or the
// coordinator-distributed one for a remote rank — with the machine's
// retry/backoff policy, and announces src. It is the one dial path:
// planned setup, reconnect rebuilds and lazy on-demand dials all come
// through here. ctxDone, when non-nil, cancels the backoff waits and
// the dial itself.
func (m *Machine) dialRetry(ctxDone <-chan struct{}, src, dst int) (net.Conn, error) {
	addr, err := m.addrOf(dst)
	if err != nil {
		return nil, err
	}
	var conn net.Conn
	for attempt := 0; ; attempt++ {
		var err error
		conn, err = m.dialCancelable(ctxDone, addr)
		if err == nil {
			break
		}
		if errors.Is(err, errDialCanceled) {
			return nil, fmt.Errorf("tcp: rank %d dial rank %d: canceled", src, dst)
		}
		if attempt+1 >= m.dialAttempts {
			return nil, fmt.Errorf("tcp: rank %d dial rank %d failed after %d attempts: %w", src, dst, m.dialAttempts, err)
		}
		if m.st.closed.Load() || m.st.broken.Load() {
			// The run aborted (or the machine closed) while we were
			// between attempts; a retry would outlive its purpose.
			return nil, fmt.Errorf("tcp: rank %d dial rank %d: machine torn down", src, dst)
		}
		select {
		case <-time.After(m.dialBackoff << attempt):
		case <-ctxDone:
			return nil, fmt.Errorf("tcp: rank %d dial rank %d: setup canceled", src, dst)
		}
	}
	m.applyNoDelay(conn)
	var hs [4]byte
	binary.BigEndian.PutUint32(hs[:], uint32(int32(src)))
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: rank %d handshake to %d: %w", src, dst, err)
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// errDialCanceled marks a dial abandoned because the caller's context
// ended while the connection attempt was in flight.
var errDialCanceled = errors.New("tcp: dial canceled")

// dialCancelable runs the machine's dialer but returns as soon as
// ctxDone fires, closing the late connection (if any) in the
// background — net dialers take no context, so a black-holed peer would
// otherwise pin the caller for the full OS connect timeout.
func (m *Machine) dialCancelable(ctxDone <-chan struct{}, addr string) (net.Conn, error) {
	if ctxDone == nil {
		return m.dial(addr)
	}
	type dialResult struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialResult, 1)
	go func() {
		c, err := m.dial(addr)
		ch <- dialResult{c, err}
	}()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-ctxDone:
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
		return nil, errDialCanceled
	}
}

// lazyCall is one in-flight lazy dial: later requests for the same
// unordered pair (either direction) wait on done instead of dialing a
// duplicate, then pick the winner's connection out of the table.
type lazyCall struct {
	done chan struct{}
	err  error
}

// ensureLink opens the connection for an unplanned (src,dst) link on
// demand: the sparse mesh's correctness fallback. Dials are serialized
// per unordered pair — not machine-wide, so one unreachable peer never
// head-of-line-blocks unrelated lazy dials — and the dialer waits until
// the acceptor's endpoint is registered too, so two ranks racing to
// open the same pair (or the reverse direction of it) always converge
// on one connection. ctx, normally the run's context, bounds the whole
// affair: a canceled run returns promptly instead of sitting out
// handshakeTimeout.
func (m *Machine) ensureLink(ctx context.Context, src, dst int) (net.Conn, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	key := [2]int{src, dst}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	st := m.st
	for {
		st.connMu.RLock()
		c := m.procs[src].conns[dst]
		st.connMu.RUnlock()
		if c != nil {
			return c, nil // a racing dial (either direction) won
		}
		if st.closed.Load() || st.broken.Load() {
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: machine torn down", src, dst)
		}
		m.lazyMu.Lock()
		call := m.lazyInflight[key]
		if call == nil {
			call = &lazyCall{done: make(chan struct{})}
			m.lazyInflight[key] = call
			m.lazyMu.Unlock()
			conn, err := m.lazyDial(ctxDone, src, dst)
			m.lazyMu.Lock()
			delete(m.lazyInflight, key)
			m.lazyMu.Unlock()
			call.err = err
			close(call.done)
			return conn, err
		}
		m.lazyMu.Unlock()
		select {
		case <-call.done:
		case <-ctxDone:
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: run canceled: %w", src, dst, ctx.Err())
		}
		if call.err != nil {
			// The pair's in-flight dial just failed; piling a retry storm
			// of our own onto the same dead peer helps nobody.
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: %w", src, dst, call.err)
		}
		// The winner (either direction) registered the connection; loop
		// to pick it out of the table.
	}
}

// lazyDial performs the winning on-demand dial of one unplanned pair
// and waits until both endpoints are installed.
func (m *Machine) lazyDial(ctxDone <-chan struct{}, src, dst int) (net.Conn, error) {
	conn, err := m.dialRetry(ctxDone, src, dst)
	if err != nil {
		return nil, err
	}
	m.lazyDials.Add(1)
	if !m.register(src, dst, conn, true) {
		conn.Close()
		return nil, fmt.Errorf("tcp: lazy dial %d→%d: machine torn down", src, dst)
	}
	// Send on whatever register left in the table: if a racing accepted
	// connection (the remote side dialing us at the same moment) already
	// owned the slot, our dialed conn is a receive-only duplicate and
	// writing to it would split the link's FIFO order across two streams.
	m.st.connMu.RLock()
	if c := m.procs[src].conns[dst]; c != nil {
		conn = c
	}
	m.st.connMu.RUnlock()
	if !m.isLocal(dst) {
		// The acceptor's endpoint lives in another process; our own
		// registered end is all this process needs.
		return conn, nil
	}
	// Wait for the acceptor's endpoint so the pair is fully established
	// before any frame moves: a half-registered pair could otherwise
	// race the reverse direction into a duplicate connection.
	st := m.st
	wake := func() {
		st.connMu.Lock()
		st.connCond.Broadcast()
		st.connMu.Unlock()
	}
	stop := make(chan struct{})
	defer close(stop)
	if ctxDone != nil {
		go func() {
			select {
			case <-ctxDone:
				wake()
			case <-stop:
			}
		}()
	}
	timer := time.AfterFunc(handshakeTimeout, wake)
	defer timer.Stop()
	deadline := time.Now().Add(handshakeTimeout)
	st.connMu.Lock()
	defer st.connMu.Unlock()
	for m.procs[dst].conns[src] == nil {
		if st.closed.Load() || st.broken.Load() {
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: machine torn down", src, dst)
		}
		if ctxDone != nil {
			select {
			case <-ctxDone:
				return nil, fmt.Errorf("tcp: lazy dial %d→%d: run canceled", src, dst)
			default:
			}
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: peer endpoint not registered within %v", src, dst, handshakeTimeout)
		}
		st.connCond.Wait()
	}
	return conn, nil
}

// connectLocked dials the machine's share of the planned pairs — the
// higher rank dials (when it is local; a remote dialer's worker handles
// it), the persistent acceptors register the other end — and waits
// until every planned pair has its local endpoints installed. On
// failure the listeners are closed (to unblock the acceptors) and every
// partially built connection is torn down. Callers hold m.mu (or, for
// NewMachine, exclusive ownership of a machine nobody else has seen).
func (m *Machine) connectLocked(ctx context.Context) error {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	m.st.connMu.Lock()
	m.setupErr = nil
	m.st.connMu.Unlock()

	// Propagate setup cancellation to the pair wait.
	stop := make(chan struct{})
	defer close(stop)
	if ctxDone != nil {
		go func() {
			select {
			case <-ctxDone:
				m.setupFail(fmt.Errorf("tcp: setup canceled: %w", ctx.Err()))
			case <-stop:
			}
		}()
	}

	// Dial side: the higher rank of every planned pair dials the lower
	// and announces itself, one goroutine per dialing rank so setup
	// latency stays O(pairs/p), with retry and backoff for transient
	// failures. On a partial machine, only local dialers dial; pairs
	// whose higher rank lives in another process are that worker's job
	// and land here through the acceptors.
	byDialer := make([][]int, m.size)
	for _, pr := range m.pairs {
		if m.isLocal(pr[1]) {
			byDialer[pr[1]] = append(byDialer[pr[1]], pr[0])
		}
	}
	var wg sync.WaitGroup
	for i, peers := range byDialer {
		if len(peers) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, peers []int) {
			defer wg.Done()
			for _, j := range peers {
				conn, err := m.dialRetry(ctxDone, i, j)
				if err != nil {
					m.setupFail(err)
					return
				}
				if !m.register(i, j, conn, true) {
					conn.Close()
					m.setupFail(fmt.Errorf("tcp: rank %d dial rank %d: machine torn down during setup", i, j))
					return
				}
			}
		}(i, peers)
	}
	wg.Wait()
	err := m.waitPairs()
	if err != nil {
		for _, ln := range m.listeners {
			if ln != nil {
				ln.Close() // waitPairs timeout: unblock the acceptors too
			}
		}
		m.st.closeConns()
		m.pumps.Wait()
		m.clearTable()
		return err
	}
	return nil
}

// waitPairs blocks until every planned pair has its local endpoints
// registered (the dialed end synchronously, the accepted end by the
// acceptor goroutines; a remote endpoint is the owning worker's
// business), a setup error is reported, or the handshake deadline
// expires.
func (m *Machine) waitPairs() error {
	st := m.st
	timer := time.AfterFunc(handshakeTimeout, func() {
		st.connMu.Lock()
		st.connCond.Broadcast()
		st.connMu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(handshakeTimeout)
	established := func(a, b int) bool {
		if m.isLocal(a) && m.procs[a].conns[b] == nil {
			return false
		}
		if m.isLocal(b) && m.procs[b].conns[a] == nil {
			return false
		}
		return true
	}
	st.connMu.Lock()
	defer st.connMu.Unlock()
	idx := 0
	for {
		if m.setupErr != nil {
			return m.setupErr
		}
		for idx < len(m.pairs) {
			if !established(m.pairs[idx][0], m.pairs[idx][1]) {
				break
			}
			idx++
		}
		if idx == len(m.pairs) {
			return nil
		}
		if !time.Now().Before(deadline) {
			a, b := m.pairs[idx][0], m.pairs[idx][1]
			return fmt.Errorf("tcp: setup: link %d–%d not established within %v", a, b, handshakeTimeout)
		}
		st.connCond.Wait()
	}
}

// applyNoDelay sets the machine's TCP_NODELAY policy on one mesh socket
// (default on; Options.DisableNoDelay leaves Nagle coalescing in place).
// Non-TCP conns — fault-injection wrappers in tests — are left alone,
// and errors are ignored: the policy is a latency tune, not a
// correctness requirement.
func (m *Machine) applyNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(!m.disableNoDelay)
	}
}

// pump reads frames off one connection end for the machine's lifetime
// (or until the mesh breaks). A read error during a run is a mid-run
// connection failure (root cause, the run aborts); during Close or after
// an abort it is the expected teardown; between runs it marks the mesh
// broken so the next Run rebuilds it.
func (m *Machine) pump(pr *Proc, peer int, conn net.Conn) {
	defer m.pumps.Done()
	st := m.st
	rd := newFrameReader(conn, peer, pr.rank)
	for {
		fr, epoch, err := rd.read()
		if err != nil {
			if st.closed.Load() || st.broken.Load() {
				return // session teardown or already-torn mesh
			}
			st.connMu.RLock()
			sidecar := pr.conns[peer] != conn
			st.connMu.RUnlock()
			if sidecar {
				// A receive-only duplicate (the loser of a cross-process
				// pair race) closed: the link's registered connection is
				// still up, so nothing is lost and nobody is blocked.
				return
			}
			rs := st.run.Load()
			if rs != nil {
				pr.in.fail(st, rs, fmt.Errorf("tcp: connection %d→%d failed: %w", peer, pr.rank, err))
				st.abort(rs, &abortError{cause: fmt.Errorf("machine aborted: connection %d→%d failed", peer, pr.rank)})
			} else {
				// A connection died between runs: nobody is blocked on
				// it, so just mark the mesh for rebuild.
				st.broken.Store(true)
			}
			return
		}
		rs := st.run.Load()
		if rs == nil || epoch != rs.epoch {
			continue // frame from an earlier run (late or replayed): drop
		}
		if fr.Tag == barrierTag {
			pr.in.pushBarrier(st, rs, peer)
		} else {
			pr.in.push(st, rs, peer, fr, rs.wallIfTraced())
		}
	}
}

// Run builds a fully connected loopback TCP machine of p processors,
// executes fn on each, and tears the machine down. A panic on any
// processor aborts the run and is returned as an error. Run applies no
// deadlines; see RunOpts. For many broadcasts back to back, build a
// Machine once instead.
func Run(p int, fn func(*Proc)) (*Result, error) {
	return RunOpts(p, Options{}, fn)
}

// RunOpts is Run with deadlines, cancellation and dial-retry control
// (see Options). With a RecvTimeout or RunTimeout configured, a hung or
// killed rank becomes a returned error naming the blocked rank and
// peer — never a silent hang. It is the one-shot open-run-close wrapper
// over NewMachine/Machine.Run/Machine.Close.
func RunOpts(p int, opts Options, fn func(*Proc)) (*Result, error) {
	m, err := NewMachine(p, opts)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}
