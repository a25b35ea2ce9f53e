package tcp

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"repro/internal/comm"
)

// writeFrame writes one frame through a pooled scratch: the
// plain-io.Writer form of writeFrameTo for the codec tests, which have no
// scratch of their own.
func writeFrame(w io.Writer, epoch uint32, m comm.Message) error {
	sc := getScratch()
	err := writeFrameTo(w, epoch, m, sc)
	putScratch(sc)
	return err
}

// readFrame decodes one frame sent by rank src to rank dst: the one-shot
// form of frameReader for the codec tests, which keep no per-link reader.
// It may read past the frame's end.
func readFrame(r io.Reader, src, dst int) (comm.Message, uint32, error) {
	return newFrameReader(r, src, dst, nil, nil).read()
}

// frameBytes encodes a message for adversarial mutation.
func frameBytes(epoch uint32, m comm.Message) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, epoch, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzFrameDecode feeds arbitrary bytes to the frame decoder: it must
// either return a valid message or an error, never panic or over-allocate
// (a lying header must not translate into a huge up-front allocation —
// parts storage only grows as payload bytes actually arrive).
func FuzzFrameDecode(f *testing.F) {
	f.Add(frameBytes(1, comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 2, Data: []byte("ab")}}}))
	f.Add(frameBytes(7, comm.Message{Tag: -3, Parts: []comm.Part{
		{Origin: 0, Data: []byte("first")},
		{Origin: 5, Data: nil},
		{Origin: 1, Data: bytes.Repeat([]byte{0xCD}, 300)},
	}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 12))
	// Header claiming maxParts parts with no bytes behind it.
	hdr := make([]byte, frameHdrLen)
	binary.BigEndian.PutUint32(hdr[8:], uint32(maxParts))
	f.Add(append([]byte(nil), hdr...))
	// Truncated mid-part-header and mid-payload.
	whole := frameBytes(3, comm.Message{Tag: 9, Parts: []comm.Part{{Origin: 4, Data: bytes.Repeat([]byte{1}, 64)}}})
	f.Add(whole[:frameHdrLen+4])
	f.Add(whole[:len(whole)-10])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := readFrame(bytes.NewReader(data), 1, 0)
		if err != nil {
			if strings.Contains(err.Error(), "corrupt frame") &&
				(!strings.Contains(err.Error(), "from rank 1") || !strings.Contains(err.Error(), "at rank 0")) {
				t.Fatalf("corrupt-frame error does not name both ranks: %v", err)
			}
			return
		}
		if len(m.Parts) > maxParts {
			t.Fatalf("decoder accepted %d parts", len(m.Parts))
		}
	})
}

// FuzzFrameRoundTrip encodes fuzz-built multi-part messages through the
// pooled writer (contiguous and vectored paths, plus the batch encoder)
// and decodes them back; every path must reproduce the message exactly.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(0, 3, uint32(0), []byte("payload"), 1)
	f.Add(-5, 0, uint32(7), []byte{}, 3)
	// Big enough to cross contiguousLimit and take the vectored path.
	f.Add(12, 1, uint32(2), bytes.Repeat([]byte{0x5A}, contiguousLimit), 2)
	f.Fuzz(func(t *testing.T, tag, origin int, epoch uint32, data []byte, nparts int) {
		if nparts < 0 || nparts > 8 {
			return
		}
		m := comm.Message{Tag: tag}
		for i := 0; i < nparts; i++ {
			m.Parts = append(m.Parts, comm.Part{Origin: origin + i, Data: data})
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, epoch, m); err != nil {
			t.Fatal(err)
		}
		batched := appendFrame(nil, epoch, m)
		if !bytes.Equal(buf.Bytes(), batched) {
			t.Fatalf("writeFrame and appendFrame encodings differ (%d vs %d bytes)", buf.Len(), len(batched))
		}
		got, gotEpoch, err := readFrame(&buf, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tag != tag || gotEpoch != epoch || len(got.Parts) != nparts {
			t.Fatalf("round trip mismatch: %+v (epoch %d)", got, gotEpoch)
		}
		for i, p := range got.Parts {
			if p.Origin != origin+i || !bytes.Equal(p.Data, data) {
				t.Fatalf("part %d mismatch: %+v", i, p)
			}
		}
	})
}

// FuzzFrameCorruptLengths mutates the length fields of an otherwise
// valid frame: negative and oversized part lengths and part counts must
// come back as structured errors naming both ranks — never a panic, a
// huge allocation, or a silent success.
func FuzzFrameCorruptLengths(f *testing.F) {
	f.Add(uint32(1<<20), uint32(16))       // nparts exactly at the maxParts boundary
	f.Add(uint32(0x80000000), uint32(16))  // negative nparts
	f.Add(uint32(2), uint32(0x80000001))   // negative part length
	f.Add(uint32(1), uint32(maxPartLen+1)) // oversized part length
	f.Fuzz(func(t *testing.T, nparts, plen uint32) {
		frame := make([]byte, frameHdrLen+partHdrLen)
		binary.BigEndian.PutUint32(frame[0:], 5)      // epoch
		binary.BigEndian.PutUint32(frame[4:], 1)      // tag
		binary.BigEndian.PutUint32(frame[8:], nparts) // claimed parts
		binary.BigEndian.PutUint32(frame[12:], 3)     // origin
		binary.BigEndian.PutUint32(frame[16:], plen)  // claimed length
		m, _, err := readFrame(bytes.NewReader(frame), 2, 7)
		np := int(int32(nparts))
		pl := int(int32(plen))
		switch {
		case np < 0 || np > maxParts:
			if err == nil || !strings.Contains(err.Error(), "parts") {
				t.Fatalf("bad part count %d accepted (err=%v)", np, err)
			}
		case np >= 1 && (pl < 0 || pl > maxPartLen):
			if err == nil || !strings.Contains(err.Error(), "bytes") {
				t.Fatalf("bad part length %d accepted (err=%v)", pl, err)
			}
		default:
			// Structurally plausible header over a truncated stream:
			// must be an io error, not a panic; a zero-part frame
			// decodes cleanly.
			if np == 0 && (err != nil || len(m.Parts) != 0) {
				t.Fatalf("empty frame: m=%+v err=%v", m, err)
			}
			return
		}
		if !strings.Contains(err.Error(), "from rank 2") || !strings.Contains(err.Error(), "at rank 7") {
			t.Fatalf("corrupt-frame error does not name both ranks: %v", err)
		}
	})
}

// FuzzFrameNPartsBoundary pins the exact maxParts boundary: a frame
// honestly claiming maxParts parts is structurally legal (the decoder
// reads on until the stream ends), one more part is corrupt.
func FuzzFrameNPartsBoundary(f *testing.F) {
	f.Add(uint32(maxParts))
	f.Add(uint32(maxParts + 1))
	f.Fuzz(func(t *testing.T, nparts uint32) {
		hdr := make([]byte, frameHdrLen)
		binary.BigEndian.PutUint32(hdr[8:], nparts)
		_, _, err := readFrame(bytes.NewReader(hdr), 0, 1)
		if err == nil {
			t.Fatal("frame with claimed parts but no body accepted")
		}
		np := int(int32(nparts))
		isCorrupt := strings.Contains(err.Error(), "corrupt frame")
		if (np < 0 || np > maxParts) != isCorrupt {
			t.Fatalf("nparts=%d classified wrong: %v", np, err)
		}
	})
}
