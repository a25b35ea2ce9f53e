package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	stpbcast "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/topology"
)

// The workload parameters below are the benchmark's contract: a number
// measured with one set is comparable only with numbers measured with the
// same set. Change them only in a PR that changes nothing else and
// re-measures the baseline.
const (
	smallBytes   = 1 << 10   // L of the *_small workloads, cluster_p64 and the collectives cycle
	largeBytes   = 256 << 10 // L of session_tcp_large: 4 sources × 16 ranks × 256 KiB = 16 MiB delivered per op
	bcastSources = 4
	meshRows     = 4 // p = 16 for the session and daemon workloads
	meshCols     = 4
	clusterRows  = 8 // p = 64 over clusterWorkers processes
	clusterCols  = 8
	clusterProcs = 4
	// recvTimeout is what the daemon applies by default and what the
	// README tells session users to set, so every real-byte run carries it.
	recvTimeout = 30 * time.Second
)

// figureIDs are the figures one sim_figures op regenerates.
var figureIDs = []string{"fig3", "fig6", "fig9", "fig13a"}

func bcastConfig(msgBytes int) stpbcast.Config {
	return stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: bcastSources, MsgBytes: msgBytes}
}

// collectiveCycle is the six-run op of session_live_collectives, with
// fixed registry names so the planner plays no part.
func collectiveCycle() []stpbcast.Config {
	return []stpbcast.Config{
		bcastConfig(smallBytes),
		{Collective: stpbcast.CollectiveReduce, Algorithm: "Red_Tree", Distribution: "E", Sources: 1, MsgBytes: smallBytes},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: smallBytes},
		{Collective: stpbcast.CollectiveScatter, Algorithm: "Scatter_Binomial", Distribution: "E", Sources: 1, MsgBytes: smallBytes},
		{Collective: stpbcast.CollectiveAllGather, Algorithm: "Ag_RecDouble", MsgBytes: smallBytes},
		{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise", MsgBytes: smallBytes},
	}
}

// cycleKeys names each run of the cycle in core.cycle_us.<key>.
var cycleKeys = []string{"bcast", "reduce", "allreduce", "scatter", "allgather", "alltoall"}

// env is what a workload needs from the run: the seed its inputs derive
// from, where the repository is, and the goldens.
type env struct {
	seed   int64
	root   string // module root (the directory holding go.mod)
	outDir string // benchmark/out under root
	golden *goldens

	daemonOnce sync.Once
	daemonBin  string
	daemonErr  error
}

// rng returns a generator for one named input, so that adding a workload
// never changes another workload's inputs under the same seed.
func (e *env) rng(label string) *rand.Rand {
	h := sha256.Sum256([]byte(label))
	var salt int64
	for _, b := range h[:8] {
		salt = salt<<8 | int64(b)
	}
	return rand.New(rand.NewSource(e.seed ^ salt))
}

// buildDaemon compiles cmd/stpbcastd into the out directory, once per
// process. Build time is not part of any metric.
func (e *env) buildDaemon() (string, error) {
	e.daemonOnce.Do(func() {
		bin := filepath.Join(e.outDir, "stpbcastd")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/stpbcastd")
		cmd.Dir = e.root
		if out, err := cmd.CombinedOutput(); err != nil {
			e.daemonErr = fmt.Errorf("build cmd/stpbcastd: %v\n%s", err, out)
			return
		}
		e.daemonBin = bin
	})
	return e.daemonBin, e.daemonErr
}

// instance is one opened workload: the system under test, warm.
type instance interface {
	// op runs one operation. The caller times it; t is nil in untraced
	// rounds and collects spans and per-layer samples in traced ones.
	op(t *tracer) error
	// verify checks the outputs of the last op. It runs after the op's
	// clock has stopped and before the next op starts.
	verify() error
	// children lists the child processes that are part of the system
	// under test (nil for in-process workloads).
	children() []int
	close() error
}

// heapReporter is an instance whose child processes can report their
// cumulative heap counters.
type heapReporter interface {
	childHeap() (heapCounts, error)
}

// workload is one named set of inputs and the path that serves them.
type workload struct {
	name string
	why  string
	// ranks is how many rank slots a tracer needs (0: no rank spans).
	ranks int
	// selfUnderTest: this process hosts (part of) the system under test,
	// so its CPU and peak memory count. False only for the daemon
	// workload, where this process is just the client.
	selfUnderTest bool
	// deliveredBytes is the verified payload one op delivers, where
	// goodput is the point of the workload (0 elsewhere).
	deliveredBytes int64
	// reportP99: the workload's p99 is an end-to-end number in its own
	// right (given at least ten samples beyond it).
	reportP99 bool
	// open is the set-up: everything a user pays before the first op.
	open func(e *env) (instance, error)
	// prepare builds what open needs; its time is not part of any metric.
	prepare func(e *env) error
	// twinHeap, where the system under test is a child process whose heap
	// cannot be read, counts the allocations of n ops on an in-process
	// twin of it instead.
	twinHeap func(inst instance) (h heapCounts, n int, err error)
	// probes measures the layers this workload exercises, from outside,
	// into pl, after the traced rounds and before the instance closes.
	probes func(st *wstate, pl perLayer) error
}

func workloads() []*workload {
	return []*workload{
		{
			name:          "session_tcp_small",
			why:           "closed loop, 1 caller: warm p=16 TCP session, Br_Lin E(4) 1 KiB; fixed per-run cost dominates, bytes are negligible",
			ranks:         meshRows * meshCols,
			selfUnderTest: true,
			open: func(e *env) (instance, error) {
				return openSession(e, "session_tcp_small", stpbcast.EngineTCP, []stpbcast.Config{bcastConfig(smallBytes)}, nil)
			},
			probes: probeSessionTCPSmall,
		},
		{
			name:           "session_tcp_large",
			why:            "closed loop, 1 caller: same session, L=256 KiB (16 MiB delivered per op); the byte path dominates, run lifecycle is under 5 %",
			ranks:          meshRows * meshCols,
			selfUnderTest:  true,
			deliveredBytes: meshRows * meshCols * bcastSources * largeBytes,
			open: func(e *env) (instance, error) {
				return openSession(e, "session_tcp_large", stpbcast.EngineTCP, []stpbcast.Config{bcastConfig(largeBytes)}, nil)
			},
			probes: probeSessionTCPLarge,
		},
		{
			name:          "session_live_collectives",
			why:           "closed loop, 1 caller: warm p=16 live session, cycle of six collectives at 1 KiB; no sockets, so facade+core+live do all the work",
			ranks:         meshRows * meshCols,
			selfUnderTest: true,
			open: func(e *env) (instance, error) {
				return openSession(e, "session_live_collectives", stpbcast.EngineLive, collectiveCycle(), cycleKeys)
			},
			probes: probeSessionLive,
		},
		{
			name:      "daemon_tcp_small",
			why:       "closed loop, 1 keep-alive client: POST /v1/broadcast to a child stpbcastd with the session_tcp_small config; the gap to it is the daemon layer",
			reportP99: true,
			prepare:   func(e *env) error { _, err := e.buildDaemon(); return err },
			open:      openDaemon,
			twinHeap:  daemonTwinHeap,
			probes:    probeDaemon,
		},
		{
			name:          "cluster_p64",
			why:           "closed loop, 1 caller: p=64 sparse mesh over 4 worker processes, Br_Lin E(4) 1 KiB; control plane and cross-process sockets dominate",
			selfUnderTest: true,
			open:          openCluster,
			probes:        probeCluster,
		},
		{
			name:          "sim_figures",
			why:           "closed loop, 1 caller: regenerate fig3, fig6, fig9, fig13a on the simulator; real-byte engines do nothing; digests must match the golden",
			selfUnderTest: true,
			open:          openFigures,
			probes:        probeSim,
		},
		{
			name:          "plan_cold",
			why:           "closed loop, 1 caller: 20-instance planning sweep through a fresh planner and empty cache; analytic ranking and probe simulations dominate",
			selfUnderTest: true,
			open:          openPlanCold,
			probes:        probePlan,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runCase is one run configuration resolved against its machine, with
// the generated payloads and everything verification needs.
type runCase struct {
	cfg      stpbcast.Config
	coll     core.Collective
	alg      core.Algorithm
	spec     core.Spec
	payloads [][]byte // per rank; nil where the rank holds no initial data
	sum      []byte   // byte-wise sum mod 256 of the contributions (combining collectives)
	key      string   // core.cycle_us.<key>, "" outside the collectives cycle
}

func (rc *runCase) payload(rank int) []byte { return rc.payloads[rank] }

// resolveSources mirrors how the facade resolves a Config's source set
// (Config.spec is unexported): sourceless collectives use every rank, an
// unplaced Reduce/AllReduce every rank and an unplaced Scatter root 0,
// anything else its named distribution.
func resolveSources(m *stpbcast.Machine, cfg stpbcast.Config, coll core.Collective) ([]int, error) {
	caps := coll.Caps()
	switch {
	case !caps.TakesSources:
		return core.AllRanksSources(m.P()), nil
	case cfg.Distribution == "" && cfg.Sources == 0 && coll != core.Broadcast:
		if caps.SingleSource {
			return []int{0}, nil
		}
		return core.AllRanksSources(m.P()), nil
	}
	d, err := dist.ByName(cfg.Distribution)
	if err != nil {
		return nil, err
	}
	return d.Sources(m.Rows, m.Cols, cfg.Sources)
}

func newRunCase(m *stpbcast.Machine, cfg stpbcast.Config, rng *rand.Rand) (*runCase, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	coll, err := core.ParseCollective(string(cfg.Collective))
	if err != nil {
		return nil, err
	}
	alg, err := core.ByNameFor(coll, cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	sources, err := resolveSources(m, cfg, coll)
	if err != nil {
		return nil, err
	}
	rc := &runCase{
		cfg: cfg, coll: coll, alg: alg,
		spec:     core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sources, Indexing: topology.SnakeRowMajor},
		payloads: make([][]byte, m.P()),
	}
	if err := rc.spec.Validate(m.P()); err != nil {
		return nil, err
	}
	n := cfg.MsgBytes
	holders := sources
	switch coll {
	case core.Scatter:
		n *= m.P()
		holders = sources[:1]
	case core.AllToAll:
		n *= m.P()
	}
	for _, r := range holders {
		buf := make([]byte, n)
		rng.Read(buf)
		rc.payloads[r] = buf
	}
	if coll.Caps().Combining {
		rc.sum = make([]byte, cfg.MsgBytes)
		for _, r := range sources {
			for i, b := range rc.payloads[r] {
				rc.sum[i] += b
			}
		}
	}
	return rc, nil
}

// verifyBundles checks every rank's bundle byte for byte against the
// collective's postcondition. It allocates nothing on the passing path.
func (rc *runCase) verifyBundles(bundles []map[int][]byte) error {
	p, l := rc.spec.P(), rc.cfg.MsgBytes
	if len(bundles) != p {
		return fmt.Errorf("%s: bundles for %d ranks, want %d", rc.alg.Name(), len(bundles), p)
	}
	bad := func(rank, origin int) error {
		return fmt.Errorf("%s: rank %d holds wrong bytes for origin %d", rc.alg.Name(), rank, origin)
	}
	for rank, got := range bundles {
		want := 0
		switch rc.coll {
		case core.Broadcast, core.AllGather: // full broadcast: every source's message on every rank
			want = len(rc.spec.Sources)
			for _, src := range rc.spec.Sources {
				if !bytes.Equal(got[src], rc.payloads[src]) {
					return bad(rank, src)
				}
			}
		case core.Reduce, core.AllReduce: // byte-sum mod 256, at the root or everywhere
			if rc.coll == core.AllReduce || rank == rc.spec.Sources[0] {
				want = 1
				if !bytes.Equal(got[core.ReducedOrigin], rc.sum) {
					return bad(rank, core.ReducedOrigin)
				}
			}
		case core.Scatter: // chunk d at rank d
			want = 1
			if !bytes.Equal(got[rank], rc.payloads[rc.spec.Sources[0]][rank*l:(rank+1)*l]) {
				return bad(rank, rank)
			}
		case core.AllToAll: // transpose: rank r holds chunk r of every origin
			want = p
			for o := 0; o < p; o++ {
				if !bytes.Equal(got[o], rc.payloads[o][rank*l:(rank+1)*l]) {
					return bad(rank, o)
				}
			}
		}
		if len(got) != want {
			return fmt.Errorf("%s: rank %d holds %d entries, want %d", rc.alg.Name(), rank, len(got), want)
		}
	}
	return nil
}

// sessionInst serves the three in-process session workloads: one warm
// Session, one op = one Session.Run per case.
type sessionInst struct {
	name    string
	e       *env
	m       *stpbcast.Machine
	engine  stpbcast.Engine
	s       *stpbcast.Session
	cases   []*runCase
	results []*stpbcast.Result
	// sends and bytes of the last traced op, checked against the golden.
	traced       bool
	sends, bytes int64
}

func openSession(e *env, name string, engine stpbcast.Engine, cfgs []stpbcast.Config, keys []string) (instance, error) {
	m := stpbcast.NewParagon(meshRows, meshCols)
	si := &sessionInst{name: name, e: e, m: m, engine: engine, results: make([]*stpbcast.Result, len(cfgs))}
	rng := e.rng(name)
	for i, cfg := range cfgs {
		rc, err := newRunCase(m, cfg, rng)
		if err != nil {
			return nil, err
		}
		if keys != nil {
			rc.key = keys[i]
		}
		si.cases = append(si.cases, rc)
	}
	s, err := stpbcast.Open(m, engine, stpbcast.SessionOptions{})
	if err != nil {
		return nil, err
	}
	si.s = s
	return si, nil
}

func (si *sessionInst) op(t *tracer) error {
	si.traced = t != nil
	si.sends, si.bytes = 0, 0
	for i, rc := range si.cases {
		opts := stpbcast.RunOptions{Payload: rc.payload, RecvTimeout: recvTimeout}
		if t == nil {
			res, err := si.s.Run(rc.cfg, opts)
			if err != nil {
				return err
			}
			si.results[i] = res
			continue
		}
		rt, err := t.traceRun("session.run", rc.alg, func(a core.Algorithm) error {
			opts.Algorithm = a
			res, err := si.s.Run(rc.cfg, opts)
			si.results[i] = res
			return err
		})
		if err != nil {
			return err
		}
		observeRun(t, rt)
		if rc.key != "" {
			t.observe("core.cycle_us."+rc.key, float64(rt.alg)/1e3)
		}
		si.sends += int64(rt.sends)
		si.bytes += rt.bytes
	}
	if t != nil {
		t.observe("core.sends_per_run", float64(si.sends))
		t.observe("core.bytes_per_run", float64(si.bytes))
	}
	return nil
}

// observeRun files one traced run's budget under the facade, core and
// comm layers.
func observeRun(t *tracer, rt runTimes) {
	t.observe("stpbcast.session_run_us", float64(rt.total)/1e3)
	t.observe("stpbcast.pre_run_us", float64(rt.pre)/1e3)
	t.observe("stpbcast.post_run_us", float64(rt.post)/1e3)
	t.observe("core.alg_run_us", float64(rt.alg)/1e3)
	// What pre + alg + post leave unexplained: the stagger between the
	// first rank's start and the critical rank's.
	t.observe("stpbcast.budget_gap_pct", 100*float64(rt.total-rt.pre-rt.alg-rt.post)/float64(rt.total))
	t.observe("comm.send_us", float64(rt.sendNs)/1e3)
	t.observe("comm.recv_wait_us", float64(rt.recvNs)/1e3)
	t.observe("comm.barrier_us", float64(rt.barrierNs)/1e3)
}

func (si *sessionInst) verify() error {
	for i, rc := range si.cases {
		if err := rc.verifyBundles(si.results[i].Bundles); err != nil {
			return err
		}
	}
	if si.traced {
		return si.e.golden.checkCounts(si.name, si.sends, si.bytes)
	}
	return nil
}

func (si *sessionInst) children() []int { return nil }

func (si *sessionInst) close() error {
	st, err := si.s.Close()
	if err == nil && (st.Failures != 0 || st.Reconnects != 0) {
		err = fmt.Errorf("%s: session closed with %d failures, %d reconnects", si.name, st.Failures, st.Reconnects)
	}
	return err
}

// daemonInst is a child stpbcastd with default flags and one keep-alive
// HTTP client.
type daemonInst struct {
	e      *env
	cmd    *exec.Cmd
	exited chan error
	stderr *bytes.Buffer
	base   string
	client *http.Client
	body   []byte

	status    int
	resp      bytes.Buffer
	prevBytes int64
	t         *tracer
}

// listenWatcher is the child's stdout: it reports the address from the
// "listening on" line and discards the rest.
type listenWatcher struct {
	buf  []byte
	addr chan string
	done bool
}

func (lw *listenWatcher) Write(p []byte) (int, error) {
	if lw.done {
		return len(p), nil
	}
	lw.buf = append(lw.buf, p...)
	if i := bytes.IndexByte(lw.buf, '\n'); i >= 0 {
		line := string(lw.buf[:i])
		if _, url, ok := strings.Cut(line, "listening on "); ok {
			lw.addr <- strings.TrimSpace(url)
		} else {
			lw.addr <- ""
		}
		lw.done, lw.buf = true, nil
	}
	return len(p), nil
}

func openDaemon(e *env) (instance, error) {
	bin, err := e.buildDaemon()
	if err != nil {
		return nil, err
	}
	return startDaemon(e, bin)
}

// startDaemon is the timed part of the daemon set-up: process start to
// listening socket. The pooled session opens lazily, inside the first op.
func startDaemon(e *env, bin string) (*daemonInst, error) {
	di := &daemonInst{e: e, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	lw := &listenWatcher{addr: make(chan string, 1)}
	di.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	di.cmd.Stdout = lw
	di.cmd.Stderr = di.stderr
	if err := di.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { di.exited <- di.cmd.Wait() }()
	select {
	case url := <-lw.addr:
		if url == "" {
			di.kill()
			return nil, errors.New("stpbcastd: first line of output is not the listening address")
		}
		di.base = url
	case err := <-di.exited:
		return nil, fmt.Errorf("stpbcastd exited before listening: %v: %s", err, di.stderr)
	case <-time.After(20 * time.Second):
		di.kill()
		return nil, errors.New("stpbcastd: no listening line within 20 s")
	}
	// One connection, kept alive: the load is one caller.
	di.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	cfg := bcastConfig(smallBytes)
	di.body, _ = json.Marshal(daemon.BroadcastRequest{
		Engine: "tcp", Topology: "paragon", Rows: meshRows, Cols: meshCols,
		Algorithm: cfg.Algorithm, Distribution: cfg.Distribution, Sources: cfg.Sources, MsgBytes: cfg.MsgBytes,
	})
	return di, nil
}

func (di *daemonInst) kill() {
	di.cmd.Process.Kill()
	<-di.exited
}

// do sends one request and reads the whole reply into di.resp.
func (di *daemonInst) do(method, path string, body []byte) error {
	req, err := http.NewRequest(method, di.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := di.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	di.status = resp.StatusCode
	di.resp.Reset()
	_, err = io.Copy(&di.resp, resp.Body)
	return err
}

func (di *daemonInst) op(t *tracer) error {
	di.t = t
	if t == nil {
		return di.do(http.MethodPost, "/v1/broadcast", di.body)
	}
	ref := t.begin("daemon.request")
	err := di.do(http.MethodPost, "/v1/broadcast", di.body)
	t.end(ref)
	return err
}

func (di *daemonInst) verify() error {
	if di.status != http.StatusOK {
		return fmt.Errorf("daemon: status %d: %s", di.status, bytes.TrimSpace(di.resp.Bytes()))
	}
	var br daemon.BroadcastResponse
	if err := json.Unmarshal(di.resp.Bytes(), &br); err != nil {
		return fmt.Errorf("daemon: reply: %v", err)
	}
	wantKey := daemon.Key{Engine: "tcp", Topology: "paragon", Rows: meshRows, Cols: meshCols}.String()
	if br.Key != wantKey || br.Collective != string(core.Broadcast) || br.Algorithm != "Br_Lin" {
		return fmt.Errorf("daemon: reply echoes key %q collective %q algorithm %q", br.Key, br.Collective, br.Algorithm)
	}
	if br.Failures != 0 || br.Reconnects != 0 || br.ElapsedNs <= 0 {
		return fmt.Errorf("daemon: reply reports failures=%d reconnects=%d elapsed_ns=%d", br.Failures, br.Reconnects, br.ElapsedNs)
	}
	delta := br.Bytes - di.prevBytes
	di.prevBytes = br.Bytes
	if di.t != nil {
		di.t.observe("daemon.server_ms_p50", float64(br.ServerNs)/1e6)
		di.t.observe("daemon.resp_bytes", float64(di.resp.Len()))
	}
	// The daemon runs the session_tcp_small config, so each reply must
	// add exactly that workload's payload bytes to the session's total.
	return di.e.golden.checkCounts("session_tcp_small", -1, delta)
}

func (di *daemonInst) children() []int { return []int{di.cmd.Process.Pid} }

// stats fetches /v1/stats.
func (di *daemonInst) stats() (daemon.StatsResponse, error) {
	var st daemon.StatsResponse
	if err := di.do(http.MethodGet, "/v1/stats", nil); err != nil {
		return st, err
	}
	return st, json.Unmarshal(di.resp.Bytes(), &st)
}

// close drains the daemon over its API and waits for the process to end.
func (di *daemonInst) close() error {
	err := di.do(http.MethodPost, "/v1/shutdown", nil)
	di.client.CloseIdleConnections()
	select {
	case werr := <-di.exited:
		if err == nil && werr != nil {
			err = fmt.Errorf("stpbcastd: %v: %s", werr, di.stderr)
		}
	case <-time.After(15 * time.Second):
		di.kill()
		err = errors.New("stpbcastd did not exit within 15 s of /v1/shutdown")
	}
	return err
}

// daemonTwin is the daemon's handler in this process, without a socket:
// decode → admit → lease → run → encode on a response recorder, serving
// the request body the child daemon gets.
type daemonTwin struct {
	srv  *daemon.Server
	h    http.Handler
	body []byte
}

// newDaemonTwin builds the handler with the daemon's default options and
// serves one request, which opens the pooled session.
func newDaemonTwin(body []byte) (*daemonTwin, error) {
	srv := daemon.New(daemon.Options{})
	tw := &daemonTwin{srv: srv, h: srv.Handler(), body: body}
	if err := tw.serve(); err != nil {
		srv.Close()
		return nil, err
	}
	return tw, nil
}

func (tw *daemonTwin) serve() error {
	rec := httptest.NewRecorder()
	tw.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/broadcast", bytes.NewReader(tw.body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process handler: status %d: %s", rec.Code, rec.Body)
	}
	return nil
}

// daemonTwinHeap returns the heap allocations of one request on the twin.
// The child daemon's Go heap cannot be read from outside, and counting the
// HTTP client in this process would measure the benchmark, not the daemon;
// the twin runs the daemon's own request path on the identical request.
// What it leaves out is net/http's per-connection work in the child; what
// it adds is the recorder and request it is called with.
func daemonTwinHeap(inst instance) (heapCounts, int, error) {
	tw, err := newDaemonTwin(inst.(*daemonInst).body)
	if err != nil {
		return heapCounts{}, 0, err
	}
	defer tw.srv.Close()
	const n = 500
	h0 := readHeap()
	for i := 0; i < n; i++ {
		if err := tw.serve(); err != nil {
			return heapCounts{}, 0, err
		}
	}
	return readHeap().sub(h0), n, nil
}

// clusterInst is a p=64 session over worker OS processes, opened through
// the public API exactly as README's multi-process quick-start does.
type clusterInst struct {
	e         *env
	s         *stpbcast.Session
	cfg       stpbcast.Config
	workers   []int
	workerFDs int // the workers' open descriptors after the mesh is up
	res       *stpbcast.Result
	prevBytes int64
	t         *tracer
}

func clusterConfig() (*stpbcast.Machine, stpbcast.Config) {
	return stpbcast.NewParagon(clusterRows, clusterCols), bcastConfig(smallBytes)
}

func openCluster(e *env) (instance, error) {
	m, cfg := clusterConfig()
	links, err := stpbcast.RoutesFor(m, cfg)
	if err != nil {
		return nil, err
	}
	before := childPIDs()
	os.Setenv(heapDirEnv, e.outDir) // inherited by the workers: see reportHeapOnSignal
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{
		Links:   links,
		Cluster: &stpbcast.ClusterSpec{Workers: clusterProcs},
	})
	if err != nil {
		return nil, err
	}
	ci := &clusterInst{e: e, s: s, cfg: cfg}
	for pid := range childPIDs() {
		if !before[pid] {
			ci.workers = append(ci.workers, pid)
		}
	}
	if len(ci.workers) != clusterProcs {
		s.Close()
		return nil, fmt.Errorf("cluster: found %d worker processes, want %d", len(ci.workers), clusterProcs)
	}
	ci.workerFDs = ci.countWorkerFDs()
	return ci, nil
}

func (ci *clusterInst) countWorkerFDs() int {
	n := 0
	for _, pid := range ci.workers {
		n += openFDs(pid)
	}
	return n
}

func (ci *clusterInst) op(t *tracer) error {
	ci.t = t
	opts := stpbcast.RunOptions{RecvTimeout: recvTimeout}
	var err error
	if t == nil {
		ci.res, err = ci.s.Run(ci.cfg, opts)
		return err
	}
	ref := t.begin("session.run")
	ci.res, err = ci.s.Run(ci.cfg, opts)
	rtt := t.end(ref)
	if err == nil {
		t.observe("cluster.run_rtt_ms", float64(rtt)/1e6)
		t.observe("cluster.run_elapsed_ms", float64(ci.res.Elapsed)/1e6)
	}
	return err
}

func (ci *clusterInst) verify() error {
	if ci.res.Elapsed <= 0 || ci.res.Bundles != nil {
		return fmt.Errorf("cluster: elapsed %v, bundles %v", ci.res.Elapsed, ci.res.Bundles != nil)
	}
	st := ci.s.Stats()
	if st.Failures != 0 || st.Reconnects != 0 {
		return fmt.Errorf("cluster: %d failures, %d mesh resets", st.Failures, st.Reconnects)
	}
	// The facade does not surface the workers' lazy-dial counters, but a
	// lazy dial opens a socket that stays open: with every planned pair
	// wired by Open, the workers' descriptor count must never move.
	if n := ci.countWorkerFDs(); n != ci.workerFDs {
		return fmt.Errorf("cluster: workers hold %d descriptors, %d after set-up: lazy dials (or leaked sockets)", n, ci.workerFDs)
	}
	delta := st.Bytes - ci.prevBytes
	ci.prevBytes = st.Bytes
	// Each worker has verified its own ranks' bundles byte for byte; the
	// coordinator's byte count proves the whole schedule ran.
	return ci.e.golden.checkCounts("cluster_p64", -1, delta)
}

func (ci *clusterInst) children() []int { return ci.workers }

// childHeap sums the workers' heap counters (see reportHeapOnSignal).
func (ci *clusterInst) childHeap() (heapCounts, error) { return workersHeap(ci.e.outDir, ci.workers) }

func (ci *clusterInst) close() error {
	_, err := ci.s.Close()
	return err
}

// figuresInst regenerates the frozen figure set on the simulator.
type figuresInst struct {
	e      *env
	exps   []bench.Experiment
	series []*bench.Series
}

func openFigures(e *env) (instance, error) {
	fi := &figuresInst{e: e, series: make([]*bench.Series, len(figureIDs))}
	for _, id := range figureIDs {
		ex, err := bench.ByID(id)
		if err != nil {
			return nil, err
		}
		fi.exps = append(fi.exps, ex)
	}
	return fi, nil
}

func (fi *figuresInst) op(t *tracer) error {
	for i, ex := range fi.exps {
		var ref spanRef
		if t != nil {
			ref = t.begin("bench.fig." + ex.ID)
		}
		s, err := ex.Run()
		if t != nil {
			t.observe("bench.fig_ms."+ex.ID, float64(t.end(ref))/1e6)
		}
		if err != nil {
			return err
		}
		fi.series[i] = s
	}
	return nil
}

// verify hashes the formatted series: a simulator speed-up must leave
// every simulated statistic identical.
func (fi *figuresInst) verify() error {
	for i, s := range fi.series {
		sum := sha256.Sum256([]byte(s.Format()))
		if err := fi.e.golden.checkFigure(figureIDs[i], hex.EncodeToString(sum[:])); err != nil {
			return err
		}
	}
	return nil
}

func (fi *figuresInst) children() []int { return nil }
func (fi *figuresInst) close() error    { return nil }

// planInstance is one cell of the frozen plan_cold grid.
type planInstance struct {
	label string
	m     *machine.Machine
	req   plan.Request
}

// planGrid is the frozen 20-instance grid: four machines × {E, Cr} ×
// {(≈p/8, 1 KiB), (≈p/4, 4 KiB)} broadcasts, plus AllToAll and AllReduce
// on the T3D-64 at L=16 and 4 KiB.
func planGrid() ([]planInstance, error) {
	machines := []*machine.Machine{machine.Paragon(10, 10), machine.Paragon(16, 16), machine.T3D(64), machine.T3D(256)}
	var grid []planInstance
	for _, m := range machines {
		for _, dn := range []string{"E", "Cr"} {
			d, err := dist.ByName(dn)
			if err != nil {
				return nil, err
			}
			for _, c := range []struct{ div, l int }{{8, 1 << 10}, {4, 4 << 10}} {
				s := m.P() / c.div
				sources, err := d.Sources(m.Rows, m.Cols, s)
				if err != nil {
					return nil, err
				}
				grid = append(grid, planInstance{
					label: fmt.Sprintf("%s/Broadcast/%s(%d)/L=%d", m.Name, dn, s, c.l),
					m:     m,
					req: plan.Request{
						Collective: core.Broadcast, MsgLen: c.l, DistName: dn,
						Spec: core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sources, Indexing: topology.SnakeRowMajor},
					},
				})
			}
		}
	}
	t3d := machines[2]
	for _, coll := range []core.Collective{core.AllToAll, core.AllReduce} {
		for _, l := range []int{16, 4 << 10} {
			grid = append(grid, planInstance{
				label: fmt.Sprintf("%s/%s/L=%d", t3d.Name, coll, l),
				m:     t3d,
				req: plan.Request{
					Collective: coll, MsgLen: l,
					Spec: core.Spec{Rows: t3d.Rows, Cols: t3d.Cols, Sources: core.AllRanksSources(t3d.P()), Indexing: topology.SnakeRowMajor},
				},
			})
		}
	}
	return grid, nil
}

// planInst sweeps the grid through a fresh planner per op.
type planInst struct {
	e         *env
	grid      []planInstance // in seeded order
	decisions []*plan.Decision
}

func openPlanCold(e *env) (instance, error) {
	grid, err := planGrid()
	if err != nil {
		return nil, err
	}
	e.rng("plan_cold").Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return &planInst{e: e, grid: grid, decisions: make([]*plan.Decision, len(grid))}, nil
}

func (pi *planInst) op(t *tracer) error {
	pl := plan.New(plan.Options{Cache: plan.NewMemCache(0)})
	for i, in := range pi.grid {
		var ref spanRef
		if t != nil {
			ref = t.begin("plan.decide")
		}
		dec, err := pl.Decide(context.Background(), in.m, in.req)
		if t != nil {
			t.observe("plan.decide_cold_ms", float64(t.end(ref))/1e6)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", in.label, err)
		}
		pi.decisions[i] = dec
	}
	return nil
}

func (pi *planInst) verify() error {
	for i, in := range pi.grid {
		d := pi.decisions[i]
		if err := pi.e.golden.checkPlan(in.label, planGolden{Algorithm: d.Algorithm, Source: d.Source}); err != nil {
			return err
		}
	}
	return nil
}

func (pi *planInst) children() []int { return nil }
func (pi *planInst) close() error    { return nil }

// moduleRoot walks up from the working directory to the directory whose
// go.mod declares module repro.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module repro")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module (no go.mod declaring module repro above the working directory)")
		}
		dir = parent
	}
}
