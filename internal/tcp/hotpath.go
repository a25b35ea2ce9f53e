package tcp

// Hot-path measurement harness: drive one real loopback TCP link with
// the engine's frame writer and report the achieved frame rate.

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/comm"
)

// FrameModeVectored names the engine's frame write path: pooled scratch,
// one Write (or writev) per frame. It is the only mode.
const FrameModeVectored = "vectored"

// MeasureFrameRate writes `frames` single-part messages of payloadBytes
// each over one real loopback TCP connection through the engine's frame
// writer and returns the achieved rate in frames per second. The clock
// stops only when the draining peer has consumed every byte, so the
// number is end-to-end link throughput, not kernel-buffer fill rate.
//
// mode must be FrameModeVectored and the last parameter is ignored: the
// legacy and batched writers they used to select are gone, and the
// four-argument signature survives only because the frozen benchmark/
// tree calls it — both parameters go when benchmark/ is next edited.
func MeasureFrameRate(mode string, payloadBytes, frames, _ int) (float64, error) {
	if mode != FrameModeVectored {
		return 0, fmt.Errorf("tcp: unknown frame mode %q", mode)
	}
	if frames <= 0 || payloadBytes < 0 {
		return 0, fmt.Errorf("tcp: bad MeasureFrameRate args (frames=%d payload=%d)", frames, payloadBytes)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
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
		return 0, err
	}
	defer wc.Close()
	ar := <-accepted
	if ar.err != nil {
		return 0, ar.err
	}
	rc := ar.conn
	defer rc.Close()
	if tc, ok := wc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	m := comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: make([]byte, payloadBytes)}}}
	total := int64(frames) * int64(frameWireSize(m))
	drained := make(chan error, 1)
	go func() {
		n, err := io.Copy(io.Discard, rc)
		if err == nil && n != total {
			err = fmt.Errorf("tcp: drained %d of %d bytes", n, total)
		}
		drained <- err
	}()

	start := time.Now()
	sc := getScratch()
	defer putScratch(sc)
	for i := 0; i < frames; i++ {
		if err := writeFrameTo(wc, 1, m, sc); err != nil {
			return 0, err
		}
	}
	// Half-close the write side so the drain loop's io.Copy terminates,
	// then charge the remaining in-flight bytes to the measured window.
	if tc, ok := wc.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		wc.Close()
	}
	if err := <-drained; err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(frames) / elapsed.Seconds(), nil
}
