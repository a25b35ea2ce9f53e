package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/comm"
)

// frame layout: [epoch uint32][tag int32][nparts int32] then per part
// [origin int32][len int32][payload]. The sender is identified by the
// connection; the epoch identifies the run, so a frame from an aborted
// or slow previous run is recognizably stale and dropped by the pumps.
// A barrier token between cluster workers' leaders is a frame with no
// parts and the reserved tag engine.TokenTag.

const (
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
)

// frameWireSize returns the encoded size of m on the wire.
func frameWireSize(m comm.Message) int {
	n := frameHdrLen + len(m.Parts)*partHdrLen
	for _, part := range m.Parts {
		n += len(part.Data)
	}
	return n
}

// appendFrame appends the wire encoding of m — the epoch-stamped frame
// header followed by each part's header and payload — to buf, allocating
// only when buf must grow.
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

// frameReader decodes the frames one peer sends to one local rank. The
// reader pumps keep one per connection end; it reads through a
// readBufSize buffer, so a small multi-part frame — which the writer put
// on the wire with one Write — costs one read instead of one per header
// and payload. Decoded storage is the consumer's until its run is
// reclaimed, and comes from the reader's run arena (see arena.go): the
// parts that fit the buffered window share one slab, and a part too
// large for the window is read straight from the socket into a buffer of
// its own. Corrupt frames are attributed to both ends of the link,
// honouring the contract that engine errors name the affected rank and
// its peer. Storage grows only as bytes actually arrive, so a corrupt
// header claiming maxParts parts cannot force a huge allocation up front.
type frameReader struct {
	br       *bufio.Reader
	src, dst int // sending peer's rank, receiving (local) rank
	arena    runArena
	// reclaimed and recycled are the machine's marks (Machine.Reclaim for
	// the bytes, engine.Machine.Recycle for the part arrays), read when a
	// frame of a newer run arrives; nil for a reader without a machine,
	// whose runs are never marked.
	reclaimed, recycled *comm.Mark
}

func newFrameReader(r io.Reader, src, dst int, reclaimed, recycled *comm.Mark) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize), src: src, dst: dst, reclaimed: reclaimed, recycled: recycled}
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
	if int32(epoch-fr.arena.epoch) > 0 {
		fr.arena.begin(epoch, fr.reclaimed, fr.recycled)
	}
	if nparts == 0 {
		return m, epoch, nil
	}
	// A frame's part array is as large as nparts or maxEagerParts,
	// whichever is smaller, unless a recycled one holds nparts.
	if m.Parts = fr.arena.parts.Next(nparts); m.Parts == nil {
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
	fr.arena.parts.Keep(m.Parts)
	return m, epoch, nil
}

// readParts appends the next run of at most want parts to parts: every
// whole part (header and payload) the read buffer can hold at once is
// copied out of one buffered window into one shared slab; when not even
// the first fits, that part alone is read, into a buffer of its own.
// Both come from the arena.
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
		data := fr.arena.bytes.Get(n)[:n:n]
		if _, err := io.ReadFull(fr.br, data); err != nil {
			return nil, err
		}
		return append(parts, comm.Part{Origin: origin, Data: data}), nil
	}
	b, err := fr.br.Peek(window)
	if err != nil {
		return nil, err
	}
	slab := fr.arena.bytes.Get(payload)[:payload:payload]
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
