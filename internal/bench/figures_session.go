package bench

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/tcp"
)

func init() {
	register(Experiment{
		ID:        "figSession",
		Title:     "Persistent TCP session vs one-shot setup: throughput of 100 back-to-back 1 KiB Br_Lin broadcasts at p=16",
		Paper:     "Beyond the paper: the paper's NX runs amortize machine setup across a whole experiment campaign; this figure quantifies the same amortization for the TCP engine — a warm session mesh vs rebuilding listeners, the O(p²) connection mesh and reader pumps per broadcast.",
		WallClock: true,
		Run:       runFigSession,
	})
}

// figSession workload parameters (the acceptance scenario: 100
// back-to-back 1 KiB broadcasts at p=16).
const (
	sessP       = 16
	sessRuns    = 100
	sessMsgLen  = 1024
	sessSources = 4
)

// sessionCheckpoints are the cumulative run counts at which both loops
// report throughput.
var sessionCheckpoints = []int{10, 25, 50, 100}

// sessionBody returns the per-rank broadcast body for the figSession
// workload: every source contributes a 1 KiB payload and every rank
// must leave with all s bundles.
func sessionBody(spec core.Spec, alg core.Algorithm) (func(c comm.Comm), func() error) {
	payload := make([]byte, sessMsgLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	got := make([]int, sessP)
	alg = core.Bind(alg, spec)
	body := func(c comm.Comm) {
		out := alg.Run(c, spec, core.InitialMessage(spec, c.Rank(), payload))
		got[c.Rank()] = len(out.Parts)
	}
	check := func() error {
		for rank, n := range got {
			if n != sessSources {
				return fmt.Errorf("bench: figSession rank %d finished with %d parts, want %d", rank, n, sessSources)
			}
		}
		return nil
	}
	return body, check
}

// runFigSession times the same 100-broadcast workload twice — once
// paying full TCP engine setup per broadcast (the pre-session one-shot
// API), once over a single persistent machine — and reports throughput
// at growing run counts plus the session/one-shot speedup.
func runFigSession() (*Series, error) {
	d, err := dist.ByName("E")
	if err != nil {
		return nil, err
	}
	m := machine.Paragon(4, 4)
	spec, err := SpecFor(m, d, sessSources)
	if err != nil {
		return nil, err
	}
	alg := core.BrLin()
	opts := tcp.Options{RecvTimeout: 30 * time.Second}

	oneShot, err := timeSessionLoop(sessRuns, func() (func(fn func(*tcp.Proc)) (*tcp.Result, error), func() error, error) {
		return func(fn func(*tcp.Proc)) (*tcp.Result, error) {
			mc, err := tcp.NewMachine(sessP, opts)
			if err != nil {
				return nil, err
			}
			defer mc.Close()
			return mc.Run(opts, fn)
		}, func() error { return nil }, nil
	}, spec, alg)
	if err != nil {
		return nil, err
	}

	warm, err := timeSessionLoop(sessRuns, func() (func(fn func(*tcp.Proc)) (*tcp.Result, error), func() error, error) {
		mc, err := tcp.NewMachine(sessP, opts)
		if err != nil {
			return nil, nil, err
		}
		return func(fn func(*tcp.Proc)) (*tcp.Result, error) {
			return mc.Run(opts, fn)
		}, mc.Close, nil
	}, spec, alg)
	if err != nil {
		return nil, err
	}

	s := NewSeries(
		fmt.Sprintf("Persistent session vs one-shot setup, %d×%d ranks, %d B payloads, Br_Lin/E/s=%d",
			m.Rows, m.Cols, sessMsgLen, sessSources),
		"broadcasts completed", "broadcasts/s (speedup is a ratio)",
		"one-shot", "session", "speedup")
	s.Notes = "Wall-clock measurement, not a paper figure: absolute rates vary with the host, " +
		"but the speedup column is the point — the session amortizes listener setup, the O(p²) " +
		"dial mesh and reader-pump spawn across runs, so it stays well above 1 (reported, not gated). " +
		"Session timing includes its one-time setup cost."
	for i, k := range sessionCheckpoints {
		os := float64(k) / oneShot[i].Seconds()
		ws := float64(k) / warm[i].Seconds()
		s.AddX(fmt.Sprintf("%d", k), os, ws, ws/os)
	}
	return s, nil
}

// timeSessionLoop runs the figSession workload n times through the
// runner produced by open, recording cumulative wall time at every
// checkpoint. The runner's one-time setup (for the warm loop, building
// the mesh) is included in the first checkpoint's time.
func timeSessionLoop(n int, open func() (func(fn func(*tcp.Proc)) (*tcp.Result, error), func() error, error), spec core.Spec, alg core.Algorithm) ([]time.Duration, error) {
	body, check := sessionBody(spec, alg)
	start := time.Now()
	run, closeFn, err := open()
	if err != nil {
		return nil, err
	}
	defer closeFn()
	var marks []time.Duration
	next := 0
	for i := 0; i < n; i++ {
		if _, err := run(func(pr *tcp.Proc) { body(pr) }); err != nil {
			return nil, fmt.Errorf("bench: figSession run %d: %w", i, err)
		}
		if err := check(); err != nil {
			return nil, err
		}
		if next < len(sessionCheckpoints) && i+1 == sessionCheckpoints[next] {
			marks = append(marks, time.Since(start))
			next++
		}
	}
	if err := closeFn(); err != nil {
		return nil, err
	}
	return marks, nil
}
