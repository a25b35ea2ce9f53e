package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	stpbcast "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/tcp"
)

// Layer probes: each layer's public functions are called directly, at
// successive depths, with the inputs the workload uses — Session.Run,
// then the engine's Machine.Run with the identical rank body, then an
// empty body, a barrier, a ping-pong. The difference between two depths
// is the self time of the layer between them. Probes run after a traced
// pass's rounds, on the same warm process.

// sampleNs calls fn n times and returns each call's duration in ns.
func sampleNs(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0))
	}
	return out
}

// meanNs times n back-to-back calls of a sub-microsecond fn as one
// interval, where a clock read per call would dominate.
func meanNs(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// mallocsDuring returns the heap allocations and bytes fn causes.
func mallocsDuring(fn func()) (count, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// firstErr keeps the first error of a series of calls made from inside
// sampling closures, which cannot return one.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// bareBody is the rank body Session.Run hands its engine (session.go's
// runReal), rebuilt here so the engine can be timed without the facade.
func bareBody(rc *runCase, bundles []map[int][]byte) func(c comm.Comm) {
	return func(c comm.Comm) {
		mine := core.InitialFor(rc.coll, rc.spec, c.Rank(), rc.payload)
		out := rc.alg.Run(c, rc.spec, mine)
		got := make(map[int][]byte, len(out.Parts))
		for _, part := range out.Parts {
			got[part.Origin] = part.Data
		}
		bundles[c.Rank()] = got
	}
}

// probeFacade measures the stpbcast layer around a session workload's
// first case: Session.Run against the engine's Machine.Run with the
// identical body (interleaved, so drift hits both), and the cost of
// building the ranks' initial bundles.
func probeFacade(si *sessionInst, pl perLayer, engineRun func(body func(comm.Comm)) error) error {
	rc := si.cases[0]
	opts := stpbcast.RunOptions{Payload: rc.payload, RecvTimeout: recvTimeout}
	bundles := make([]map[int][]byte, rc.spec.P())
	body := bareBody(rc, bundles)
	const n = 200
	sess, bare := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := si.s.Run(rc.cfg, opts); err != nil {
			return err
		}
		t1 := time.Now()
		if err := engineRun(body); err != nil {
			return err
		}
		sess = append(sess, float64(t1.Sub(t0)))
		bare = append(bare, float64(time.Since(t1)))
	}
	if err := rc.verifyBundles(bundles); err != nil {
		return fmt.Errorf("bare engine run: %w", err)
	}
	pl["stpbcast.session_self_us"] = (median(sess) - median(bare)) / 1e3
	pl["core.initial_us"] = median(sampleNs(n, func() {
		for r := 0; r < rc.spec.P(); r++ {
			core.InitialFor(rc.coll, rc.spec, r, rc.payload)
		}
	})) / 1e3
	return nil
}

// probeOpen times Open+Close of a session with the workload's shape.
func probeOpen(engine stpbcast.Engine) (float64, error) {
	m := stpbcast.NewParagon(meshRows, meshCols)
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s, err := stpbcast.Open(m, engine, stpbcast.SessionOptions{})
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		if _, err := s.Close(); err != nil {
			return 0, err
		}
	}
	return median(ms), nil
}

// newTCPMachine builds a bare TCP machine, timing the construction.
func newTCPMachine(p int, links [][2]int) (*tcp.Machine, float64, error) {
	t0 := time.Now()
	tm, err := tcp.NewMachine(p, tcp.Options{Links: links})
	return tm, float64(time.Since(t0)) / 1e6, err
}

// tcpPingPong runs k 1 KiB round trips between ranks 0 and 1 of a p=2
// machine inside one Run and returns the time per round trip.
func tcpPingPong(tm *tcp.Machine, k int) (float64, error) {
	msg := comm.Message{Parts: []comm.Part{{Origin: 0, Data: make([]byte, smallBytes)}}}
	var perTrip float64
	_, err := tm.Run(tcp.Options{RecvTimeout: recvTimeout}, func(pr *tcp.Proc) {
		if pr.Rank() == 0 {
			t0 := time.Now()
			for i := 0; i < k; i++ {
				pr.Send(1, msg)
				pr.Recv(1)
			}
			perTrip = float64(time.Since(t0)) / float64(k)
			return
		}
		for i := 0; i < k; i++ {
			pr.Send(0, pr.Recv(0))
		}
	})
	return perTrip, err
}

func probeSessionTCPSmall(st *wstate, pl perLayer) error {
	si := st.inst.(*sessionInst)
	rc := si.cases[0]
	pl["stpbcast.validate_us"] = meanNs(20000, func() { _ = rc.cfg.Validate() }) / 1e3
	auto := rc.cfg
	auto.Algorithm = stpbcast.AutoAlgorithm
	if _, err := stpbcast.Plan(si.m, auto); err != nil { // fills the process-wide plan cache
		return err
	}
	pl["stpbcast.plan_warm_us"] = median(sampleNs(2000, func() { stpbcast.Plan(si.m, auto) })) / 1e3
	openMs, err := probeOpen(stpbcast.EngineTCP)
	if err != nil {
		return err
	}
	pl["stpbcast.open_ms.tcp"] = openMs

	var tm *tcp.Machine
	var built []float64
	for i := 0; i < 3; i++ {
		if tm != nil {
			tm.Close()
		}
		var ms float64
		if tm, ms, err = newTCPMachine(si.m.P(), nil); err != nil {
			return err
		}
		built = append(built, ms)
	}
	defer tm.Close()
	pl["tcp.newmachine_full_p16_ms"] = median(built)
	pl["tcp.conns_opened"] = float64(tm.ConnsOpened())
	run := func(fn func(*tcp.Proc)) error {
		_, err := tm.Run(tcp.Options{RecvTimeout: recvTimeout}, fn)
		return err
	}
	if err := probeFacade(si, pl, func(body func(comm.Comm)) error {
		return run(func(pr *tcp.Proc) { body(pr) })
	}); err != nil {
		return err
	}
	var failed firstErr
	keep := failed.keep
	pl["tcp.run_empty_us"] = median(sampleNs(300, func() { keep(run(func(*tcp.Proc) {})) })) / 1e3
	pl["tcp.run_barrier_us"] = median(sampleNs(300, func() { keep(run(func(pr *tcp.Proc) { pr.Barrier() })) })) / 1e3
	if failed.err != nil {
		return failed.err
	}

	pair, _, err := newTCPMachine(2, nil)
	if err != nil {
		return err
	}
	defer pair.Close()
	const trips = 1000
	var pp []float64
	for i := 0; i < 5; i++ {
		us, err := tcpPingPong(pair, trips)
		if err != nil {
			return err
		}
		pp = append(pp, us/1e3)
	}
	pl["tcp.pingpong_1k_us"] = median(pp)
	allocs, _ := mallocsDuring(func() { _, err = tcpPingPong(pair, trips) })
	if err != nil {
		return err
	}
	pl["tcp.allocs_per_pingpong"] = allocs / trips
	rate, err := tcp.MeasureFrameRate(tcp.FrameModeVectored, 16, 20000, 0)
	if err != nil {
		return err
	}
	pl["tcp.frame_rate_16b"] = rate
	pl["tcp.lazy_dials"] = float64(tm.LazyDials() + pair.LazyDials())
	pl["tcp.reconnects"] = float64(tm.Reconnects() + pair.Reconnects() + si.s.Stats().Reconnects)
	return nil
}

func probeSessionTCPLarge(st *wstate, pl perLayer) error {
	si := st.inst.(*sessionInst)
	tm, _, err := newTCPMachine(si.m.P(), nil)
	if err != nil {
		return err
	}
	defer tm.Close()
	if err := probeFacade(si, pl, func(body func(comm.Comm)) error {
		_, err := tm.Run(tcp.Options{RecvTimeout: recvTimeout}, func(pr *tcp.Proc) { body(pr) })
		return err
	}); err != nil {
		return err
	}
	// One-way stream of 256 KiB messages over one connection: the byte
	// path without the algorithm.
	pair, _, err := newTCPMachine(2, nil)
	if err != nil {
		return err
	}
	defer pair.Close()
	const msgs = 200
	msg := comm.Message{Parts: []comm.Part{{Origin: 0, Data: make([]byte, largeBytes)}}}
	stream := func() (time.Duration, error) {
		var d time.Duration
		_, err := pair.Run(tcp.Options{RecvTimeout: recvTimeout}, func(pr *tcp.Proc) {
			t0 := time.Now()
			for i := 0; i < msgs; i++ {
				if pr.Rank() == 0 {
					pr.Send(1, msg)
				} else {
					pr.Recv(0)
				}
			}
			if pr.Rank() == 1 {
				d = time.Since(t0)
			}
		})
		return d, err
	}
	mb := float64(msgs) * largeBytes / 1e6
	var rates []float64
	for i := 0; i < 3; i++ {
		d, err := stream()
		if err != nil {
			return err
		}
		rates = append(rates, mb/d.Seconds())
	}
	pl["tcp.stream_mb_s"] = median(rates)
	_, allocB := mallocsDuring(func() { _, err = stream() })
	if err != nil {
		return err
	}
	pl["tcp.alloc_kb_per_mb_recv"] = allocB / 1e3 / mb
	pl["tcp.lazy_dials"] = float64(tm.LazyDials() + pair.LazyDials())
	pl["tcp.reconnects"] = float64(tm.Reconnects() + pair.Reconnects() + si.s.Stats().Reconnects)
	return nil
}

func probeSessionLive(st *wstate, pl perLayer) error {
	si := st.inst.(*sessionInst)
	openMs, err := probeOpen(stpbcast.EngineLive)
	if err != nil {
		return err
	}
	pl["stpbcast.open_ms.live"] = openMs
	lm, err := live.NewMachine(si.m.P())
	if err != nil {
		return err
	}
	defer lm.Close()
	run := func(fn func(*live.Proc)) error {
		_, err := lm.Run(live.Options{RecvTimeout: recvTimeout}, fn)
		return err
	}
	if err := probeFacade(si, pl, func(body func(comm.Comm)) error {
		return run(func(pr *live.Proc) { body(pr) })
	}); err != nil {
		return err
	}
	var failed firstErr
	keep := failed.keep
	empty := func() { keep(run(func(*live.Proc) {})) }
	pl["live.run_empty_us"] = median(sampleNs(500, empty)) / 1e3
	pl["live.run_barrier_us"] = median(sampleNs(500, func() { keep(run(func(pr *live.Proc) { pr.Barrier() })) })) / 1e3
	const runs = 200
	allocs, _ := mallocsDuring(func() {
		for i := 0; i < runs; i++ {
			empty()
		}
	})
	pl["live.allocs_per_run"] = allocs / runs

	pair, err := live.NewMachine(2)
	if err != nil {
		return err
	}
	defer pair.Close()
	const trips = 2000
	msg := comm.Message{Parts: []comm.Part{{Origin: 0, Data: make([]byte, smallBytes)}}}
	var pp []float64
	for i := 0; i < 5; i++ {
		_, err := pair.Run(live.Options{RecvTimeout: recvTimeout}, func(pr *live.Proc) {
			if pr.Rank() == 0 {
				t0 := time.Now()
				for i := 0; i < trips; i++ {
					pr.Send(1, msg)
					pr.Recv(1)
				}
				pp = append(pp, float64(time.Since(t0))/trips/1e3)
				return
			}
			for i := 0; i < trips; i++ {
				pr.Send(0, pr.Recv(0))
			}
		})
		keep(err)
	}
	pl["live.pingpong_us"] = median(pp)
	return failed.err
}

func probeDaemon(st *wstate, pl perLayer) error {
	di := st.inst.(*daemonInst)
	var failed firstErr
	keep := failed.keep
	pl["daemon.ping_rtt_us"] = median(sampleNs(500, func() { keep(di.do(http.MethodGet, "/v1/ping", nil)) })) / 1e3
	if failed.err != nil {
		return failed.err
	}

	tw, err := newDaemonTwin(di.body)
	if err != nil {
		return err
	}
	defer tw.srv.Close()
	handlerUs := median(sampleNs(300, func() { keep(tw.serve()) })) / 1e3
	if failed.err != nil {
		return failed.err
	}
	pl["daemon.handler_us"] = handlerUs
	requestUs := median(st.lat) * 1e3
	pl["daemon.wire_us"] = requestUs - handlerUs

	pool := daemon.NewPool(daemon.PoolOptions{})
	defer pool.Close()
	key := daemon.Key{Engine: "tcp", Topology: "paragon", Rows: meshRows, Cols: meshCols}
	lease := func() {
		l, err := pool.Acquire(key)
		if err != nil {
			keep(err)
			return
		}
		l.Release()
	}
	lease() // opens the key's session
	pl["daemon.lease_us"] = median(sampleNs(2000, lease)) / 1e3

	// The same config on a session in this process: what is left of the
	// daemon's request time is the daemon layer's own.
	m := stpbcast.NewParagon(meshRows, meshCols)
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
	if err != nil {
		return err
	}
	defer s.Close()
	cfg := bcastConfig(smallBytes)
	sessUs := median(sampleNs(300, func() {
		_, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: recvTimeout})
		keep(err)
	})) / 1e3
	pl["stpbcast.session_run_us"] = sessUs
	pl["daemon.request_self_us"] = requestUs - sessUs

	// Diagnostic: two keys, two clients — does a second key scale on a
	// second core, or do the keys serialize? Never more clients than CPUs.
	if runtime.NumCPU() >= 2 {
		rate, err := twoKeyLoad(di)
		if err != nil {
			return err
		}
		pl["daemon.two_key_ops_per_s"] = rate
	}
	stats, err := di.stats()
	if err != nil {
		return err
	}
	pl["daemon.rejected"] = float64(stats.Rejected)
	pl["daemon.errors"] = float64(stats.Failed)
	pl["daemon.pool_opens"] = float64(stats.Opens)
	pl["daemon.pool_evictions"] = float64(stats.Evictions)
	return failed.err
}

// twoKeyLoad drives the child daemon with two clients for a second, one
// on the workload's TCP key and one on a live-engine key.
func twoKeyLoad(di *daemonInst) (float64, error) {
	bodies := [][]byte{di.body, bytes.Replace(di.body, []byte(`"engine":"tcp"`), []byte(`"engine":"live"`), 1)}
	const dur = time.Second
	var wg sync.WaitGroup
	counts := make([]int, len(bodies))
	errs := make([]error, len(bodies))
	start := time.Now()
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
			defer client.CloseIdleConnections()
			for time.Since(start) < dur {
				resp, err := client.Post(di.base+"/v1/broadcast", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[i] = err
					return
				}
				var sink bytes.Buffer
				sink.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("two-key load: status %d: %s", resp.StatusCode, sink.String())
					return
				}
				counts[i]++
			}
		}(i, body)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(counts[0]+counts[1]) / elapsed, errors.Join(errs...)
}

func probeCluster(st *wstate, pl perLayer) error {
	m, cfg := clusterConfig()
	rc, err := newRunCase(m, cfg, st.e.rng("cluster_p64"))
	if err != nil {
		return err
	}
	var links [][2]int
	pl["plan.routes_p64_ms"] = median(sampleNs(3, func() { links, err = plan.Routes(m, rc.alg, rc.spec, cfg.MsgBytes) })) / 1e6
	if err != nil {
		return err
	}
	var built []float64
	for i := 0; i < 3; i++ {
		tm, ms, err := newTCPMachine(m.P(), links)
		if err != nil {
			return err
		}
		built = append(built, ms)
		pl["tcp.conns_opened"] = float64(tm.ConnsOpened())
		tm.Close()
	}
	pl["tcp.newmachine_sparse_p64_ms"] = median(built)

	// The coordinator directly, one level below Session: its start time,
	// and the counters the facade does not surface.
	t0 := time.Now()
	c, err := cluster.Start(cluster.Spec{Workers: clusterProcs, P: m.P(), Links: links})
	if err != nil {
		return err
	}
	defer c.Close()
	pl["cluster.start_ms"] = float64(time.Since(t0)) / 1e6
	pl["cluster.inter_links"] = float64(c.InterLinks())
	rs := cluster.RunSpec{Rows: m.Rows, Cols: m.Cols, Sources: rc.spec.Sources, Algorithm: cfg.Algorithm, MsgBytes: cfg.MsgBytes, RecvTimeoutNs: int64(recvTimeout)}
	lazy := 0
	for i := 0; i < 20; i++ {
		res, err := c.Run(rs)
		if err != nil {
			return err
		}
		lazy = res.LazyDials
	}
	pl["cluster.lazy_dials"] = float64(lazy)
	pl["cluster.resets"] = float64(c.Resets() + st.inst.(*clusterInst).s.Stats().Reconnects)
	pl["cluster.control_self_ms"] = pl["cluster.run_rtt_ms"] - pl["cluster.run_elapsed_ms"]
	if lazy != 0 {
		return fmt.Errorf("cluster: %d lazy dials — the route plan missed links the schedule uses", lazy)
	}
	return nil
}

// simPoint is the simulator's reference point: the paper's Figure-2
// configuration, Br_xy_source E(30) 4 KiB on a 10×10 Paragon.
func simPoint() (*machine.Machine, core.Algorithm, core.Spec, error) {
	m := machine.Paragon(10, 10)
	alg, err := core.ByName("Br_xy_source")
	if err != nil {
		return nil, nil, core.Spec{}, err
	}
	spec, err := bench.SpecFor(m, dist.Equal(), 30)
	return m, alg, spec, err
}

// probeSimPoint times one simulated point and derives the simulator's
// event rate.
func probeSimPoint(pl perLayer) error {
	m, alg, spec, err := simPoint()
	if err != nil {
		return err
	}
	sends := 0
	pointNs := median(sampleNs(50, func() {
		res, merr := bench.Measure(m, alg, spec, 4096)
		if merr != nil {
			err = merr
			return
		}
		sends = 0
		for i := range res.Procs {
			sends += res.Procs[i].Sends
		}
	}))
	if err != nil {
		return err
	}
	pl["sim.point_us"] = pointNs / 1e3
	pl["sim.sends_per_s"] = float64(sends) / (pointNs / 1e9)
	const points = 20
	allocs, _ := mallocsDuring(func() {
		for i := 0; i < points; i++ {
			bench.Measure(m, alg, spec, 4096)
		}
	})
	pl["sim.allocs_per_point"] = allocs / points
	return nil
}

func probeSim(st *wstate, pl perLayer) error {
	if err := probeSimPoint(pl); err != nil {
		return err
	}
	m, _, _, err := simPoint()
	if err != nil {
		return err
	}
	nw, err := m.NewNetwork()
	if err != nil {
		return err
	}
	p, i := m.P(), 0
	pl["network.transfer_ns"] = meanNs(200000, func() {
		nw.Transfer(i%p, (i*7+3)%p, 4096, 0)
		i++
	})

	fi := st.inst.(*figuresInst)
	pass := func() (time.Duration, error) {
		t0 := time.Now()
		err := fi.op(nil)
		return time.Since(t0), err
	}
	var parallel time.Duration
	_, allocB := mallocsDuring(func() { parallel, err = pass() })
	if err != nil {
		return err
	}
	pl["bench.alloc_mb_per_pass"] = allocB / 1e6
	// The single-threaded baseline: the same pass with the harness's
	// worker pool capped at one.
	prev := par.SetLimit(1)
	serial, err := pass()
	par.SetLimit(prev)
	if err != nil {
		return err
	}
	if err := fi.verify(); err != nil {
		return fmt.Errorf("serial pass: %w", err)
	}
	pl["par.speedup"] = serial.Seconds() / parallel.Seconds()
	return nil
}

func probePlan(st *wstate, pl perLayer) error {
	pi := st.inst.(*planInst)
	// The reference instance is the grid's first cell in label order, so
	// it does not move with the seed.
	ref := pi.grid[0]
	for _, in := range pi.grid {
		if in.label < ref.label {
			ref = in
		}
	}
	coll := ref.req.Collective
	candidates := plan.New(plan.Options{}).CandidatesFor(coll)
	rankUs := median(sampleNs(20, func() { plan.Rank(ref.m, ref.req.Spec, ref.req.MsgLen, candidates) })) / 1e3
	pl["plan.rank_us"] = rankUs
	var err error
	var warm *plan.Planner
	coldMs := median(sampleNs(5, func() {
		warm = plan.New(plan.Options{Cache: plan.NewMemCache(0)})
		if _, derr := warm.Decide(context.Background(), ref.m, ref.req); derr != nil {
			err = derr
		}
	})) / 1e6
	if err != nil {
		return err
	}
	pl["plan.decide_cold_ms"] = coldMs
	pl["plan.probe_ms"] = coldMs - rankUs/1e3
	pl["plan.cache_hit_ns"] = median(sampleNs(5000, func() { warm.Decide(context.Background(), ref.m, ref.req) }))
	pl["plan.key_ns"] = meanNs(20000, func() { plan.NewKey(ref.m, coll, ref.req.Spec, ref.req.MsgLen, ref.req.DistName) })
	probes := 0
	for _, d := range pi.decisions {
		probes += len(d.Probes)
	}
	pl["plan.probes_per_decide"] = float64(probes) / float64(len(pi.decisions))

	brLin, err := core.ByName("Br_Lin")
	if err != nil {
		return err
	}
	for _, c := range []struct {
		metric     string
		rows, cols int
	}{{"plan.routes_p64_ms", 8, 8}, {"plan.routes_p256_ms", 16, 16}} {
		m := machine.Paragon(c.rows, c.cols)
		spec, err := bench.SpecFor(m, dist.Equal(), bcastSources)
		if err != nil {
			return err
		}
		pl[c.metric] = median(sampleNs(3, func() {
			if _, rerr := plan.Routes(m, brLin, spec, smallBytes); rerr != nil {
				err = rerr
			}
		})) / 1e6
		if err != nil {
			return err
		}
	}
	return probeSimPoint(pl) // the planner's probes are simulations
}
