package tcp

import (
	"bytes"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/topology"
)

// drainedConn returns a real loopback TCP connection whose far end is
// being drained, so writes never block on a full kernel buffer, plus a
// cleanup that closes both ends and joins the drain goroutine.
func drainedConn(tb testing.TB) (net.Conn, func()) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	type acceptResult struct {
		conn net.Conn
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		c, err := ln.Accept()
		accepted <- acceptResult{c, err}
	}()
	wc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		tb.Fatal(err)
	}
	ar := <-accepted
	ln.Close()
	if ar.err != nil {
		wc.Close()
		tb.Fatal(ar.err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for {
			if _, err := ar.conn.Read(buf); err != nil {
				return
			}
		}
	}()
	return wc, func() {
		wc.Close()
		ar.conn.Close()
		wg.Wait()
	}
}

func smallMsg() comm.Message {
	return comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: make([]byte, 64)}}}
}

func largeMsg() comm.Message {
	parts := make([]comm.Part, 8)
	for i := range parts {
		parts[i] = comm.Part{Origin: i, Data: make([]byte, 8<<10)}
	}
	return comm.Message{Tag: 1, Parts: parts}
}

// BenchmarkFrameWriteSmall is the steady-state send path for a small
// single-part frame: contiguous encode, one Write. Must report 0 allocs/op.
func BenchmarkFrameWriteSmall(b *testing.B) {
	conn, cleanup := drainedConn(b)
	defer cleanup()
	m := smallMsg()
	sc := getScratch()
	defer putScratch(sc)
	b.ReportAllocs()
	b.SetBytes(int64(frameWireSize(m)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrameTo(conn, 1, m, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriteVectored is the steady-state send path for a large
// multi-part frame: gather list, one writev. Must report 0 allocs/op —
// payloads are referenced in place, never recopied.
func BenchmarkFrameWriteVectored(b *testing.B) {
	conn, cleanup := drainedConn(b)
	defer cleanup()
	m := largeMsg()
	sc := getScratch()
	defer putScratch(sc)
	b.ReportAllocs()
	b.SetBytes(int64(frameWireSize(m)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrameTo(conn, 1, m, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// multiPartSmallMsg is a k-part frame the writer sends contiguously and
// the reader decodes from one buffered window: the shape of a combined
// small-L broadcast bundle.
func multiPartSmallMsg() comm.Message {
	parts := make([]comm.Part, 4)
	for i := range parts {
		parts[i] = comm.Part{Origin: i, Data: make([]byte, 512)}
	}
	return comm.Message{Tag: 1, Parts: parts}
}

func benchFrameRead(b *testing.B, m comm.Message) {
	one := appendFrame(nil, 1, m)
	stream := bytes.NewReader(nil)
	rd := newFrameReader(stream, 0, 1, nil, nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(one)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset(one)
		if _, _, err := rd.read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRead decodes a large multi-part frame from a pre-encoded
// in-memory stream: every part bypasses the read buffer into a buffer of
// its own.
func BenchmarkFrameRead(b *testing.B) { benchFrameRead(b, largeMsg()) }

// BenchmarkFrameReadSmall decodes a k-part small frame: one buffered
// window, one slab, one part slice.
func BenchmarkFrameReadSmall(b *testing.B) { benchFrameRead(b, multiPartSmallMsg()) }

// BenchmarkBarrierTCP is one run of a bare p=16 machine whose ranks do
// nothing but meet in Barrier — the fixed cost every registry schedule
// opens with.
func BenchmarkBarrierTCP(b *testing.B) {
	m, err := NewMachine(16, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(Options{RecvTimeout: 30 * time.Second}, (*Proc).Barrier); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendRecvSteadyStateTCP measures the full engine hot path —
// Send through the pooled writer, buffered pump decode, blocking Recv —
// as b.N ping-pong rounds over one warm 2-rank mesh. The send side is
// allocation-free; the remaining per-round allocations are the delivered
// frames themselves (a slab and a part slice each), which belong to the
// receiver (arena.go).
func BenchmarkSendRecvSteadyStateTCP(b *testing.B) {
	m, err := NewMachine(2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	msg := comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: make([]byte, 64)}}}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(Options{}, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.Send(1, msg)
				p.Recv(1)
			} else {
				p.Recv(0)
				p.Send(0, msg)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// countingWriter counts the Write calls that reach it — the syscalls,
// were it a socket.
type countingWriter struct{ writes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// TestFrameWriteAllocationFree pins the send side of the frame hot path:
// steady-state frame writes — small/contiguous and large/vectored —
// allocate nothing once the scratch is warm, and a small frame reaches
// the stream in one Write, not one per header and payload (2k+1 for k
// parts, about 3× the cost per small frame).
func TestFrameWriteAllocationFree(t *testing.T) {
	conn, cleanup := drainedConn(t)
	defer cleanup()
	sc := getScratch()
	defer putScratch(sc)
	for _, tc := range []struct {
		name string
		m    comm.Message
	}{
		{"small-contiguous", smallMsg()},
		{"large-vectored", largeMsg()},
	} {
		write := func() {
			if err := writeFrameTo(conn, 1, tc.m, sc); err != nil {
				t.Fatal(err)
			}
		}
		write() // warm the scratch buffers
		if n := testing.AllocsPerRun(200, write); n != 0 {
			t.Errorf("%s: %v allocs per frame write, want 0", tc.name, n)
		}
	}
	for _, m := range []comm.Message{smallMsg(), multiPartSmallMsg()} {
		cw := &countingWriter{}
		if err := writeFrameTo(cw, 1, m, sc); err != nil {
			t.Fatal(err)
		}
		if cw.writes != 1 {
			t.Errorf("%d-part small frame took %d writes, want 1", len(m.Parts), cw.writes)
		}
	}
}

// syscw reads this process's write-syscall count from /proc/self/io.
func syscw(t *testing.T) int {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("no syscw in /proc/self/io")
	return 0
}

// TestBroadcastWireCounts pins what one run of the benchmark's
// session_tcp_small op puts on the wire: a p=16 Br_Lin E(4) 1 KiB
// broadcast is 32 data frames and no barrier frame (ranks of one process
// meet in memory), exactly; and one write syscall per frame (32 on a
// 2-vCPU Linux guest), the least over a few runs of a process-wide count
// that the runtime's own writes may add to, so the check fails only at
// twice that — where a frame split into header and payload writes lands;
// skipped where there is no /proc/self/io to count them.
func TestBroadcastWireCounts(t *testing.T) {
	const rows, cols, s, l = 4, 4, 4, 1 << 10
	const frames = 32
	sources, err := dist.Equal().Sources(rows, cols, s)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Rows: rows, Cols: cols, Sources: sources, Indexing: topology.SnakeRowMajor}
	alg := core.Bind(core.BrLin(), spec)
	payload := make([]byte, l)
	m, err := NewMachine(rows*cols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	run := func() Result {
		res, err := m.Run(Options{RecvTimeout: time.Minute}, func(pr *Proc) {
			alg.Run(pr, spec, core.InitialFor(core.Broadcast, spec, pr.Rank(), func(int) []byte { return payload }))
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(); res.Sends != frames || res.BarrierSends != 0 {
		t.Errorf("%d data and %d barrier frames per run, want %d and 0", res.Sends, res.BarrierSends, frames)
	}
	least := math.MaxInt
	for range 5 {
		before := syscw(t)
		run()
		least = min(least, syscw(t)-before)
	}
	t.Logf("%d write syscalls per run", least)
	if least >= 2*frames {
		t.Errorf("%d write syscalls per run, want about %d (one per frame)", least, frames)
	}
}

// countingReader counts the Read calls that reach the underlying stream
// — the syscalls, were it a socket.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReadSmallOneReadTwoAllocs pins the receive side of the frame
// hot path: a k-part small frame is decoded from one read of the stream
// with at most two allocations (the slab its parts share and the part
// slice), and the parts cannot grow into each other.
func TestFrameReadSmallOneReadTwoAllocs(t *testing.T) {
	want := multiPartSmallMsg()
	for i, part := range want.Parts {
		for j := range part.Data {
			part.Data[j] = byte(i + 1)
		}
	}
	one := appendFrame(nil, 7, want)
	stream := bytes.NewReader(nil)
	cr := &countingReader{r: stream}
	rd := newFrameReader(cr, 0, 1, nil, nil)
	var got comm.Message
	decode := func() {
		stream.Reset(one)
		var err error
		if got, _, err = rd.read(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, decode); n > 2 {
		t.Errorf("%v allocs per decoded small frame, want <= 2", n)
	}
	cr.reads = 0
	decode()
	if cr.reads != 1 {
		t.Errorf("%d-part small frame took %d reads, want 1", len(want.Parts), cr.reads)
	}
	for i, part := range got.Parts {
		if part.Origin != i || !bytes.Equal(part.Data, want.Parts[i].Data) {
			t.Fatalf("part %d decoded wrong: origin %d, %d bytes", i, part.Origin, len(part.Data))
		}
		if cap(part.Data) != len(part.Data) {
			t.Errorf("part %d has spare capacity %d: an append would overwrite its neighbour in the slab", i, cap(part.Data)-len(part.Data))
		}
	}
}

// TestFrameReadLargePartsBypassBuffer decodes a frame mixing parts that
// fit the read buffer with parts that do not: each oversized part must
// come back intact in a buffer of its own, and small parts around it
// must still decode.
func TestFrameReadLargePartsBypassBuffer(t *testing.T) {
	sizes := []int{100, readBufSize - partHdrLen + 1, 0, 3 * readBufSize, 2000, 2000, 2000}
	var want comm.Message
	for i, n := range sizes {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		want.Parts = append(want.Parts, comm.Part{Origin: i, Data: data})
	}
	// Two frames back to back: the reader must leave the stream exactly
	// at the next frame's header.
	stream := appendFrame(appendFrame(nil, 3, want), 4, want)
	rd := newFrameReader(bytes.NewReader(stream), 2, 5, nil, nil)
	for epoch := uint32(3); epoch <= 4; epoch++ {
		got, e, err := rd.read()
		if err != nil || e != epoch || len(got.Parts) != len(sizes) {
			t.Fatalf("frame %d: epoch %d, %d parts, err %v", epoch, e, len(got.Parts), err)
		}
		for i, part := range got.Parts {
			if part.Origin != i || part.Data == nil || !bytes.Equal(part.Data, want.Parts[i].Data) {
				t.Fatalf("frame %d part %d (%d bytes) decoded wrong", epoch, i, sizes[i])
			}
		}
	}
}

// TestMeasureFrameRateModes smoke-tests the frame-rate harness: the
// engine's one write path must move its frames and report a positive
// rate, and the modes that no longer exist are refused.
func TestMeasureFrameRateModes(t *testing.T) {
	rate, err := MeasureFrameRate(FrameModeVectored, 64, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("non-positive frame rate %v", rate)
	}
	for _, mode := range []string{"legacy", "batched", "bogus"} {
		if _, err := MeasureFrameRate(mode, 64, 10, 4096); err == nil {
			t.Fatalf("mode %q accepted", mode)
		}
	}
}
