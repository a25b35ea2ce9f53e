package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/tcp"
)

// FuzzControlDecode feeds arbitrary bytes to the control protocol's
// reader — JSON lines and binary run/done frames — and every done it
// yields to the coordinator's merge of the per-rank stats blob, for a
// worker owning ranks [3,7) of 10. Nothing may panic, and reading the
// whole stream may allocate no more than a few frame chunks plus a small
// multiple of its length: a frame length the stream does not back up
// costs nothing. A run that decodes must survive re-encoding unchanged.
// The merge check decodes the blob itself: a truncated or overlong
// varint, a count that is not 7 per rank, a rank outside the range or a
// rank twice must be an error; a merge that succeeds must have rebuilt
// exactly the stats the blob carries, every rank of the range once, and
// touched nothing outside it.
func FuzzControlDecode(f *testing.F) {
	const p, lo, hi = 10, 3, 7
	valid := appendProcs(nil, []tcp.ProcStats{
		{Rank: 3, Sends: 1, Recvs: 2, SendBytes: 3, RecvBytes: 4},
		{Rank: 5, Sends: 9}, {Rank: 4, BarrierSends: 2, BarrierRecvs: 2}, {Rank: 6},
	})
	run := RunSpec{Epoch: 2, Rows: 2, Cols: 5, Sources: []int{0, 7}, Algorithm: "Br_Lin", MsgBytes: 1024}
	runFrame := controlFrame(frameRun, appendRun(nil, &run))
	// A run frame whose source count claims more varints than the frame
	// holds: 2 sources at most fit in what follows the count.
	short := controlFrame(frameRun, binary.AppendVarint(appendRun(nil, &RunSpec{Rows: 2, Cols: 5})[:7], 1<<40))
	connect, err := json.Marshal(msg{Type: "connect", Addrs: map[int]string{3: "127.0.0.1:4000"}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		doneFrame(doneMsg{ElapsedNs: 5, Procs: valid}),
		doneFrame(doneMsg{Procs: appendProcs(nil, []tcp.ProcStats{{Rank: 3}, {Rank: 3}})}),
		doneFrame(doneMsg{Procs: appendProcs(nil, []tcp.ProcStats{{Rank: 9, Sends: 1}})}),
		doneFrame(doneMsg{Procs: valid[:len(valid)-1]}),
		doneFrame(doneMsg{Procs: append(bytes.Repeat([]byte{0xff}, 10), 0x01)}),
		doneFrame(doneMsg{Err: "tcp: rank 4: recv from 8: blocked"}),
		runFrame,
		append(connect, '\n'),
		runFrame[:len(runFrame)-3], // truncated inside the body
		{frameDone, 0x00, 0x80, 0x00, 0x01, 0x00}, // a length over the cap
		short,
		// Trailing bytes inside the frame, after the stats blob.
		controlFrame(frameDone, append(appendDone(nil, &doneMsg{Procs: valid}), 0)),
		// A setup line, a run, a done: one stream, every kind decoded.
		append(append(append(connect, '\n'), runFrame...), doneFrame(doneMsg{Procs: valid})...),
		// A length at the cap that the stream does not back up.
		{frameRun, 0x00, 0x80, 0x00, 0x00, 0x02},
		{'[', '1', ']', '\n'},
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cc := &conn{br: bufio.NewReader(bytes.NewReader(data))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			m, err := cc.recv(0)
			if err != nil {
				break
			}
			if m.Run != nil {
				got, again := *m.Run, RunSpec{}
				if err := decodeRun(appendRun(nil, &got), &again); err != nil {
					t.Fatalf("run %+v does not decode re-encoded: %v", got, err)
				}
				if len(got.Sources) == 0 {
					got.Sources = nil // an empty list decodes as nil
				}
				if !reflect.DeepEqual(again, got) {
					t.Fatalf("run %+v re-encoded decodes as %+v", got, again)
				}
			}
			if m.Done == nil {
				continue
			}
			procs := make([]tcp.ProcStats, p)
			blob := m.Done.Procs
			flat, wellFormed := varints(blob)
			ok := wellFormed && len(flat) == 7*(hi-lo) && validRanks(flat, lo, hi)
			if err := mergeProcs(procs, blob, lo, hi); err != nil {
				if ok {
					t.Fatalf("merge of %v rejected: %v", flat, err)
				}
				continue
			}
			if !ok {
				t.Fatalf("merge of %x (%v, well-formed %v) accepted", blob, flat, wellFormed)
			}
			want := make([]tcp.ProcStats, p)
			for i := 0; i < len(flat); i += 7 {
				r := flat[i]
				want[r] = tcp.ProcStats{Rank: int(r), Sends: int(flat[i+1]), Recvs: int(flat[i+2]),
					SendBytes: flat[i+3], RecvBytes: flat[i+4], BarrierSends: int(flat[i+5]), BarrierRecvs: int(flat[i+6])}
			}
			for r := range procs {
				if procs[r] != want[r] {
					t.Fatalf("merge of %v: slot %d = %+v, want %+v", flat, r, procs[r], want[r])
				}
			}
		}
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*frameChunk+64*len(data)); got > bound {
			t.Fatalf("%d input bytes allocated %d bytes, more than %d", len(data), got, bound)
		}
	})
}

// controlFrame wraps body in a frame of the given kind.
func controlFrame(kind byte, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32([]byte{kind}, uint32(len(body))), body...)
}

func doneFrame(dm doneMsg) []byte { return controlFrame(frameDone, appendDone(nil, &dm)) }

// varints decodes blob as a list of varints, reporting whether every
// byte belonged to a well-formed one.
func varints(blob []byte) ([]int64, bool) {
	var out []int64
	for len(blob) > 0 {
		v, n := binary.Varint(blob)
		if n <= 0 {
			return out, false
		}
		out, blob = append(out, v), blob[n:]
	}
	return out, true
}

// validRanks reports whether flat's rank column names every rank of
// [lo,hi) exactly once — the merge's contract, checked independently.
func validRanks(flat []int64, lo, hi int) bool {
	seen := map[int64]bool{}
	for i := 0; i+7 <= len(flat); i += 7 {
		r := flat[i]
		if r < int64(lo) || r >= int64(hi) || seen[r] {
			return false
		}
		seen[r] = true
	}
	return len(seen) == hi-lo
}

// TestMalformedFramesFail pins what the reader makes of the malformed
// binary seeds: each ends in an error naming what is wrong, after
// decoding the well-formed messages in front of it.
func TestMalformedFramesFail(t *testing.T) {
	run := RunSpec{Epoch: 2, Rows: 2, Cols: 5, Sources: []int{0, 7}, Algorithm: "Br_Lin", MsgBytes: 1024}
	runFrame := controlFrame(frameRun, appendRun(nil, &run))
	valid := appendDone(nil, &doneMsg{Procs: appendProcs(nil, []tcp.ProcStats{{Rank: 3}})})
	for _, tc := range []struct {
		name string
		data []byte
		good int // well-formed messages ahead of the bad one
		want string
	}{
		{"truncated body", runFrame[:len(runFrame)-3], 0, "unexpected EOF"},
		{"truncated header", append(slices.Clone(runFrame), frameDone, 0), 1, "unexpected EOF"},
		{"length over the cap", []byte{frameDone, 0x00, 0x80, 0x00, 0x01, 0x00}, 0, "over the 8388608-byte cap"},
		{"source count larger than the frame",
			controlFrame(frameRun, binary.AppendVarint(appendRun(nil, &RunSpec{Rows: 2, Cols: 5})[:7], 1<<40)), 0,
			"run frame: count 1099511627776 with 0 bytes left"},
		{"trailing bytes", controlFrame(frameDone, append(slices.Clone(valid), 0)), 0, "done frame: 1 bytes after the last field"},
		{"epoch out of range", controlFrame(frameRun, binary.AppendVarint(nil, 1<<32)), 0, "epoch 4294967296"},
		{"unknown kind", []byte{0x07, 0, 0, 0, 0}, 0, "starting with byte 0x7"},
	} {
		cc := &conn{br: bufio.NewReader(bytes.NewReader(tc.data))}
		for i := 0; ; i++ {
			_, err := cc.recv(0)
			if err == nil {
				continue
			}
			if i != tc.good || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: message %d failed with %q, want message %d to fail with %q", tc.name, i, err, tc.good, tc.want)
			}
			break
		}
	}
}
