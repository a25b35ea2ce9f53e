package main

import (
	"fmt"
	"time"
)

// Measurement protocol. One load-generating process, one caller, closed
// loop: every user of this system is a caller that blocks on a collective
// or on an HTTP reply. Per workload: set-up (repeated, median reported),
// warm-up, then rounds of timed ops. When several workloads run together
// their rounds are interleaved round-robin with everything kept open
// across rounds, so a slow phase of the shared machine spreads over every
// workload instead of landing on one.

type options struct {
	seed    int64
	seconds float64 // measured seconds per workload and pass
	rounds  int
	// The set-up is repeated at least minSetups times and then until
	// setupBudget is spent or maxSetups is reached: a 5 ms mesh dial needs
	// many repeats for a steady median, a 0.6 s cold sweep needs few.
	minSetups, maxSetups int
	setupBudget          time.Duration
	warmOps              int // warm-up ends after this many ops or warmDur, whichever first
	warmDur              time.Duration
	trace                bool // traced pass: spans, per-layer samples, layer probes
	keepOps              int  // ops per workload whose spans go to the Chrome file
	probes               bool // run the layer probes after a traced pass
	// shared: several workloads are measured in this process, so its
	// VmHWM belongs to none of them (set by runPass).
	shared bool
}

func defaultOptions() options {
	return options{seed: 1, seconds: 12.5, rounds: 5, minSetups: 3, maxSetups: 30, setupBudget: time.Second, warmOps: 50, warmDur: time.Second, keepOps: 8, probes: true}
}

// maxSamples preallocates each latency slice so that recording a sample
// never allocates inside a measured round.
const maxSamples = 1 << 18

// wstate is one workload being measured.
type wstate struct {
	w    *workload
	e    *env
	inst instance
	tr   *tracer

	setupS    []float64
	lat       []float64 // ms, untraced ops of all rounds pooled
	latTraced []float64 // ms, traced ops
	calib     []float64
	rounds    []roundResult
	opTime    time.Duration // summed untraced op time
	cpu       time.Duration
	heap      heapCounts // this process's allocations during the heapOps bracketed ops
	heapOps   int
	lastHeap  time.Time
	kidHeap   heapCounts // the children's allocations during all untraced windows
	attempted int
	failed    int
	firstErr  error
	peakRSS   float64
	wall      time.Duration
}

// count files one op's outcome. A failed, refused or wrongly answered op
// counts against the attempts and contributes no latency sample.
func (st *wstate) count(err error) {
	st.attempted++
	if err != nil {
		st.fail(err)
	}
}

// fail files a failure that is not one op's: a probe, a close, a child
// that stopped answering.
func (st *wstate) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// prepare performs the repeated set-up and the warm-up. Set-up time runs
// from the workload's start to the completion of its first op, so lazy
// initialisation (the daemon's pooled session, registry memoization,
// first-touch page faults) is charged to set-up and not to steady state —
// and work a later change moves into set-up shows up here.
func (st *wstate) prepare(o options) error {
	begin := time.Now()
	defer func() { st.wall += time.Since(begin) }()
	if st.w.prepare != nil { // builds; not part of set-up time
		if err := st.w.prepare(st.e); err != nil {
			return err
		}
	}
	for i, start := 0, time.Now(); i < o.minSetups || (i < o.maxSetups && time.Since(start) < o.setupBudget); i++ {
		if st.inst != nil { // keep only the last set-up open
			err := st.inst.close()
			st.inst = nil
			if err != nil {
				return fmt.Errorf("%s: close: %w", st.w.name, err)
			}
		}
		t0 := time.Now()
		inst, err := st.w.open(st.e)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", st.w.name, err)
		}
		err = inst.op(nil)
		d := time.Since(t0)
		if err == nil {
			err = inst.verify()
		}
		st.count(err)
		if err != nil {
			inst.close()
			return fmt.Errorf("%s: first op: %w", st.w.name, err)
		}
		st.setupS = append(st.setupS, d.Seconds())
		st.inst = inst
	}
	st.lat = make([]float64, 0, maxSamples)
	st.latTraced = make([]float64, 0, maxSamples)
	for start, n := time.Now(), 0; n < o.warmOps && time.Since(start) < o.warmDur; n++ {
		err := st.inst.op(nil)
		if err == nil {
			err = st.inst.verify()
		}
		st.count(err)
	}
	return nil
}

// round runs one round: a calibration spin, then dur of timed ops. In a
// traced pass the round is split into an untraced and a traced half (in
// alternating order), so tracing overhead is measured against reference
// ops that ran moments apart on the same warm system.
func (st *wstate) round(r int, dur time.Duration, o options) {
	begin := time.Now()
	defer func() { st.wall += time.Since(begin) }()
	st.calib = append(st.calib, calibrate())
	from := len(st.lat)
	defer func() {
		st.rounds = append(st.rounds, roundResult{CalibNs: st.calib[r], P50Ms: median(st.lat[from:]), Ops: len(st.lat) - from})
	}()
	if !o.trace {
		st.measure(dur, nil)
		return
	}
	if r%2 == 0 {
		st.measure(dur/2, nil)
		st.measure(dur/2, st.tr)
	} else {
		st.measure(dur/2, st.tr)
		st.measure(dur/2, nil)
	}
}

// heapEvery spaces the ops around which this process's heap counters are
// read. Reading them stops the world; around every sub-millisecond op that
// costs 5–10 % of latency and 20 % of CPU time, around one op in 20 ms
// nothing measurable, and the counts repeat from op to op.
const heapEvery = 20 * time.Millisecond

// measure runs ops back to back for dur (at least one). Each op is timed
// on its own; its outputs are verified after its clock stops and before
// the next op starts. This process's CPU time (every op) and heap counters
// (one op every heapEvery) are read around the op alone, so verification
// and the benchmark's own bookkeeping are not charged to the system under
// test. Child processes idle while this one verifies, so theirs are read
// around the whole window.
func (st *wstate) measure(dur time.Duration, t *tracer) {
	kids := st.inst.children()
	reporter, _ := st.inst.(heapReporter)
	var kidCPU time.Duration
	var kidHeap heapCounts
	if t == nil {
		kidCPU = childrenCPU(kids)
		if reporter != nil {
			kidHeap = st.childHeap(reporter)
		}
	}
	self := st.w.selfUnderTest && t == nil
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < dur; n++ {
		var ref spanRef
		var cpu time.Duration
		var heap heapCounts
		if t != nil {
			ref = t.beginOp(st.w.name + ".op")
		}
		bracket := self && time.Since(st.lastHeap) >= heapEvery
		if bracket {
			heap = readHeap()
		}
		if self {
			cpu = selfCPU()
		}
		t0 := time.Now()
		err := st.inst.op(t)
		d := time.Since(t0)
		if self {
			cpu = selfCPU() - cpu
		}
		if bracket {
			heap = readHeap().sub(heap)
			st.lastHeap = time.Now()
		}
		if t != nil {
			t.end(ref)
		}
		if err == nil {
			err = st.inst.verify()
		}
		st.count(err)
		if err != nil {
			continue
		}
		ms := float64(d) / 1e6
		if t != nil {
			st.latTraced = append(st.latTraced, ms)
			continue
		}
		st.lat = append(st.lat, ms)
		st.opTime += d
		st.cpu += cpu
		if bracket {
			st.heap.add(heap)
			st.heapOps++
		}
	}
	if t != nil {
		return
	}
	st.cpu += childrenCPU(kids) - kidCPU
	if reporter != nil {
		st.kidHeap.add(st.childHeap(reporter).sub(kidHeap))
	}
}

// childHeap reads the children's heap counters; a child that does not
// answer fails the workload.
func (st *wstate) childHeap(r heapReporter) heapCounts {
	h, err := r.childHeap()
	if err != nil {
		st.fail(fmt.Errorf("%s: %w", st.w.name, err))
	}
	return h
}

// finish reads the peak memory, runs the layer probes of a traced pass,
// closes the instance and turns the samples into the result.
func (st *wstate) finish(o options) *workloadResult {
	begin := time.Now()
	if st.w.selfUnderTest {
		st.peakRSS = peakRSSMB(0)
	}
	for _, pid := range st.inst.children() {
		st.peakRSS += peakRSSMB(pid)
	}
	res := &workloadResult{Name: st.w.name, Attempted: st.attempted, Rounds: st.rounds}
	ops := len(st.lat)
	if ops > 0 {
		res.Op = summarize(append([]float64(nil), st.lat...))
		n := float64(ops)
		res.EndToEnd = map[string]float64{
			"op_p50_ms":     res.Op.P50,
			"ops_per_s":     n / st.opTime.Seconds(),
			"cpu_ms_per_op": float64(st.cpu) / 1e6 / n,
			"setup_s":       median(st.setupS),
		}
		// Heap allocations of the system under test per op: this process's
		// over the bracketed ops plus the children's over all of them — or,
		// where the children cannot report, an in-process twin's.
		heap, heapOps := st.heap, max(st.heapOps, 1)
		if st.w.twinHeap != nil {
			var err error
			if heap, heapOps, err = st.w.twinHeap(st.inst); err != nil {
				st.fail(fmt.Errorf("%s: heap twin: %w", st.w.name, err))
			}
		}
		res.EndToEnd["allocs_per_op"] = float64(heap.mallocs)/float64(heapOps) + float64(st.kidHeap.mallocs)/n
		res.EndToEnd["alloc_kb_per_op"] = (float64(heap.bytes)/float64(heapOps) + float64(st.kidHeap.bytes)/n) / 1e3
		// This process's high-water mark is a workload's own only when the
		// workload has the process to itself; a full run reports it once,
		// in the result file's meta.
		if !(o.shared && st.w.selfUnderTest) {
			res.EndToEnd["peak_rss_mb"] = st.peakRSS
		}
	}
	if o.trace {
		pl := perLayer{"host.calib_ns": median(st.calib)}
		for name, samples := range st.tr.obs {
			pl[name] = median(samples)
		}
		if len(st.latTraced) > 0 && ops > 0 {
			pl["trace.overhead_pct"] = (median(st.latTraced)/res.Op.P50 - 1) * 100
		}
		if o.probes && st.failed == 0 {
			if err := st.w.probes(st, pl); err != nil {
				st.fail(fmt.Errorf("%s: layer probes: %w", st.w.name, err))
			}
		}
		res.PerLayer = pl
	}
	if err := st.inst.close(); err != nil {
		st.fail(fmt.Errorf("%s: close: %w", st.w.name, err))
	}
	res.Failed = st.failed
	st.fillDiagnostics(res)
	if st.firstErr != nil {
		res.FirstError = st.firstErr.Error()
	}
	res.Correct = res.Failed == 0 && ops > 0
	st.wall += time.Since(begin)
	res.WallS = st.wall.Seconds()
	return res
}

// runPass measures the given workloads in one pass, rounds interleaved.
func runPass(e *env, ws []*workload, o options, base time.Time) ([]*workloadResult, []*tracer, error) {
	o.shared = len(ws) > 1
	states := make([]*wstate, len(ws))
	closeAll := func() {
		for _, st := range states {
			if st != nil && st.inst != nil {
				st.inst.close()
			}
		}
	}
	for i, w := range ws {
		st := &wstate{w: w, e: e}
		if o.trace {
			st.tr = newTracer(base, i+1, w.ranks, o.keepOps)
		}
		if err := st.prepare(o); err != nil {
			closeAll()
			return nil, nil, err
		}
		states[i] = st
	}
	dur := time.Duration(o.seconds / float64(o.rounds) * float64(time.Second))
	for r := 0; r < o.rounds; r++ {
		for _, st := range states {
			st.round(r, dur, o)
		}
	}
	results := make([]*workloadResult, len(ws))
	tracers := make([]*tracer, len(ws))
	for i, st := range states {
		results[i] = st.finish(o)
		tracers[i] = st.tr
	}
	return results, tracers, nil
}
