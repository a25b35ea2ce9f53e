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

	"repro/internal/engine"
)

// FuzzControlDecode feeds arbitrary bytes to the control protocol's
// reader — JSON lines and binary run/done frames. Nothing may panic, and
// reading the whole stream may allocate no more than a few frame chunks
// plus a small multiple of its length: a frame length the stream does
// not back up costs nothing. A run or done that decodes must survive
// re-encoding unchanged, and a done that decodes carries no negative
// count: a negative one is an error.
func FuzzControlDecode(f *testing.F) {
	valid := doneMsg{ElapsedNs: 5, Totals: engine.Totals{Sends: 1, Recvs: 2, SendBytes: 3, RecvBytes: 4, BarrierSends: 2, BarrierRecvs: 2},
		LazyDials: 1, ConnsOpened: 6, PlannedPairs: 12}
	run := RunSpec{Epoch: 2, Rows: 2, Cols: 5, Sources: []int{0, 7}, Algorithm: "Br_Lin", MsgBytes: 1024}
	runFrame := controlFrame(frameRun, appendRun(nil, &run))
	// A run frame whose source count claims more varints than the frame
	// holds: 2 sources at most fit in what follows the count.
	short := controlFrame(frameRun, binary.AppendVarint(appendRun(nil, &RunSpec{Rows: 2, Cols: 5})[:7], 1<<40))
	connect, err := json.Marshal(msg{Type: "connect", Addrs: map[int]string{3: "127.0.0.1:4000"}})
	if err != nil {
		f.Fatal(err)
	}
	validFrame := doneFrame(valid)
	for _, seed := range [][]byte{
		validFrame,
		doneFrame(doneMsg{Totals: engine.Totals{Sends: -1}}),
		doneFrame(doneMsg{LazyDials: -3}),
		validFrame[:len(validFrame)-2], // truncated inside the body
		controlFrame(frameDone, append(bytes.Repeat([]byte{0xff}, 10), 0x01)),
		doneFrame(doneMsg{Err: "tcp: rank 4: recv from 8: blocked"}),
		runFrame,
		append(connect, '\n'),
		runFrame[:len(runFrame)-3], // truncated inside the body
		{frameDone, 0x00, 0x80, 0x00, 0x01, 0x00}, // a length over the cap
		short,
		// Trailing bytes inside the frame, after the error text.
		controlFrame(frameDone, append(appendDone(nil, &valid), 0)),
		// A setup line, a run, a done: one stream, every kind decoded.
		append(append(append(connect, '\n'), runFrame...), validFrame...),
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
			got, again := *m.Done, doneMsg{}
			if err := decodeDone(appendDone(nil, &got), &again); err != nil {
				t.Fatalf("done %+v does not decode re-encoded: %v", got, err)
			}
			if again != got {
				t.Fatalf("done %+v re-encoded decodes as %+v", got, again)
			}
			if slices.ContainsFunc([]int64{int64(got.LazyDials), int64(got.ConnsOpened), int64(got.PlannedPairs),
				int64(got.Sends), int64(got.Recvs), got.SendBytes, got.RecvBytes, int64(got.BarrierSends), int64(got.BarrierRecvs)},
				func(v int64) bool { return v < 0 }) {
				t.Fatalf("done %+v with a negative count decoded", got)
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

// TestMalformedFramesFail pins what the reader makes of the malformed
// binary seeds: each ends in an error naming what is wrong, after
// decoding the well-formed messages in front of it.
func TestMalformedFramesFail(t *testing.T) {
	run := RunSpec{Epoch: 2, Rows: 2, Cols: 5, Sources: []int{0, 7}, Algorithm: "Br_Lin", MsgBytes: 1024}
	runFrame := controlFrame(frameRun, appendRun(nil, &run))
	valid := appendDone(nil, &doneMsg{Totals: engine.Totals{Sends: 1}})
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
		{"negative count", doneFrame(doneMsg{Totals: engine.Totals{RecvBytes: -2}}), 0, "done frame: negative count -2"},
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
