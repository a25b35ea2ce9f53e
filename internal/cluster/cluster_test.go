package cluster

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// TestMain lets the test binary itself serve as a cluster worker: the
// spawn tests re-execute it with WorkerEnv set, and MaybeWorker routes
// those copies into ServeWorker instead of the test runner.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// testRoutes builds the Br_Lin sparse link plan for a rows×cols mesh
// with s sources under distribution E.
func testRoutes(t *testing.T, rows, cols, s, msgLen int) ([][2]int, []int) {
	t.Helper()
	m := machine.Paragon(rows, cols)
	d, err := dist.ByName("E")
	if err != nil {
		t.Fatal(err)
	}
	sources, err := d.Sources(rows, cols, s)
	if err != nil {
		t.Fatal(err)
	}
	// The indexing must match the worker side's default (snake), or the
	// traced routes would not be the links the cluster run uses.
	spec := core.Spec{Rows: rows, Cols: cols, Sources: sources, Indexing: topology.SnakeRowMajor}
	routes, err := plan.Routes(m, core.BrLin(), spec, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	return routes, sources
}

// adoptWorkers starts n in-process workers (goroutines running the
// real worker protocol over real control sockets) against a
// coordinator spec and returns the started coordinator.
func adoptCluster(t *testing.T, spec Spec, n int) *Coordinator {
	t.Helper()
	spec.Adopt = true
	spec.Workers = n
	spec.OnListen = func(addr string) {
		for i := 0; i < n; i++ {
			go func() {
				if err := ServeWorker(addr); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
	}
	c, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterBroadcastAdoptedWorkers(t *testing.T) {
	const rows, cols, s, msgLen = 4, 4, 4, 512
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c := adoptCluster(t, Spec{P: rows * cols, Links: routes}, 2)

	rs := RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	}
	for i := 0; i < 3; i++ { // warm mesh reuse across runs
		res, err := c.Run(rs)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(res.Procs) != rows*cols {
			t.Fatalf("run %d: %d proc stats, want %d", i, len(res.Procs), rows*cols)
		}
		for r, ps := range res.Procs {
			if ps.Rank != r {
				t.Fatalf("run %d: merged stats out of order at %d: rank %d", i, r, ps.Rank)
			}
		}
		if res.LazyDials != 0 {
			t.Fatalf("run %d: %d lazy dials over the planned sparse mesh, want 0", i, res.LazyDials)
		}
	}
	if got := c.Resets(); got != 0 {
		t.Fatalf("healthy cluster recorded %d resets", got)
	}
}

// TestClusterUnevenPartitionPlansLeaderLinks: the route plan carries no
// barrier links, and on uneven, non-power-of-two partitions the
// schedule's own links do not happen to connect the workers' leader
// ranks — each worker machine must plan those links itself, or the
// barrier's tokens would cost lazy dials. Only the leaders exchange
// tokens: ⌈log2 W⌉ each way for Br_Lin's one barrier.
func TestClusterUnevenPartitionPlansLeaderLinks(t *testing.T) {
	for _, tc := range []struct{ rows, cols, workers, rounds int }{
		{3, 5, 4, 2},
		{2, 7, 3, 2},
	} {
		const s, msgLen = 3, 256
		routes, sources := testRoutes(t, tc.rows, tc.cols, s, msgLen)
		c := adoptCluster(t, Spec{P: tc.rows * tc.cols, Links: routes}, tc.workers)

		planned := make(map[[2]int]bool, len(routes))
		for _, l := range routes {
			planned[l] = true
		}
		leader := make(map[int]bool, tc.workers)
		missing := 0
		for _, r := range c.Ranges() {
			leader[r[0]] = true
		}
		for _, l := range engine.LeaderLinks(c.leaders) {
			if !planned[l] && !planned[[2]int{l[1], l[0]}] {
				missing++
			}
		}
		if missing == 0 {
			t.Fatalf("%dx%d over %d workers: the schedule already connects every leader pair; the test proves nothing", tc.rows, tc.cols, tc.workers)
		}

		res, err := c.Run(RunSpec{
			Rows: tc.rows, Cols: tc.cols, Sources: sources, Algorithm: "Br_Lin",
			MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.LazyDials != 0 {
			t.Errorf("%dx%d over %d workers: %d lazy dials, want 0 (%d leader pairs were not schedule links)",
				tc.rows, tc.cols, tc.workers, res.LazyDials, missing)
		}
		for _, ps := range res.Procs {
			want := 0
			if leader[ps.Rank] {
				want = tc.rounds
			}
			if ps.BarrierSends != want || ps.BarrierRecvs != want {
				t.Errorf("%dx%d over %d workers, rank %d: %d/%d barrier tokens, want %d/%d",
					tc.rows, tc.cols, tc.workers, ps.Rank, ps.BarrierSends, ps.BarrierRecvs, want, want)
			}
		}
	}
}

// TestClusterPreDialsUnplannedPairs: three uneven workers planned with
// Br_Lin's routes run PersAlltoAll, whose schedule uses pairs that plan
// lacks. Each worker dials its share of them before the run — each pair
// once, by the worker of its higher rank — and the run succeeds, which
// means every worker's bundle check passed. A second run dials nothing
// more, and nothing needs a reset.
func TestClusterPreDialsUnplannedPairs(t *testing.T) {
	const rows, cols, s, msgLen = 4, 4, 4, 256
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c := adoptCluster(t, Spec{P: rows * cols, Links: routes}, 3)
	rs := RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "PersAlltoAll",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	}
	spec, alg, err := rs.resolve()
	if err != nil {
		t.Fatal(err)
	}
	used, err := plan.Routes(machine.Paragon(rows, cols), alg, spec, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	planned := pairSet(append(routes, engine.LeaderLinks(c.leaders)...))
	want := 0
	for pr := range pairSet(used) {
		if !planned[pr] {
			want++
		}
	}
	if want == 0 {
		t.Fatal("PersAlltoAll uses no pair the Br_Lin plan lacks; the test proves nothing")
	}
	opened := 0
	for i := 0; i < 2; i++ {
		res, err := c.Run(rs)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.LazyDials != want {
			t.Fatalf("run %d: %d lazy dials, want %d (the pairs PersAlltoAll uses that the plan lacks)", i, res.LazyDials, want)
		}
		if i == 0 {
			opened = res.ConnsOpened
		} else if res.ConnsOpened != opened {
			t.Fatalf("run %d dialed again: %d conns opened, %d after the first run", i, res.ConnsOpened, opened)
		}
	}
	if got := c.Resets(); got != 0 {
		t.Fatalf("%d resets, want 0", got)
	}
}

// TestClusterNilLinksDialsProgramPairs: a cluster started without a link
// plan dials only the links between its workers' leader ranks, which
// every worker machine plans for the barrier. The first run dials the
// pairs its program uses beyond those — each once, by the worker of its
// higher rank — and a second run dials nothing.
func TestClusterNilLinksDialsProgramPairs(t *testing.T) {
	const rows, cols, s, msgLen = 4, 4, 4, 256
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c := adoptCluster(t, Spec{P: rows * cols}, 3)
	leaderPairs := pairSet(engine.LeaderLinks(c.leaders))
	want := 0
	for pr := range pairSet(routes) {
		if !leaderPairs[pr] {
			want++
		}
	}
	rs := RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	}
	opened := 0
	for i := 0; i < 2; i++ {
		res, err := c.Run(rs)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// A leader pair joins two workers, so both machines plan it.
		if res.PlannedPairs != 2*len(leaderPairs) {
			t.Fatalf("run %d: %d planned pairs, want %d (the leader pairs, once per endpoint's worker)", i, res.PlannedPairs, 2*len(leaderPairs))
		}
		if res.LazyDials != want {
			t.Fatalf("run %d: %d lazy dials, want %d (the pairs Br_Lin uses beyond the leader links)", i, res.LazyDials, want)
		}
		if i == 0 {
			opened = res.ConnsOpened
		} else if res.ConnsOpened != opened {
			t.Fatalf("run %d dialed again: %d conns opened, %d after the first run", i, res.ConnsOpened, opened)
		}
	}
	if got := c.Resets(); got != 0 {
		t.Fatalf("%d resets, want 0", got)
	}
}

// TestStartRejectsOutOfRangeLink: a plan naming a rank outside the
// machine fails Start before any worker is spawned (the spec would
// re-execute this test binary) or awaited.
func TestStartRejectsOutOfRangeLink(t *testing.T) {
	for _, l := range [][2]int{{0, 8}, {-1, 3}} {
		c, err := Start(Spec{Workers: 2, P: 8, Links: [][2]int{{0, 1}, l}})
		if err == nil {
			c.Close()
			t.Fatalf("link %v accepted", l)
		}
		if !strings.Contains(err.Error(), "outside machine of 8 ranks") {
			t.Errorf("link %v: error %q", l, err)
		}
	}
}

// pairSet collects the unordered pairs {min,max} of directed links.
func pairSet(links [][2]int) map[[2]int]bool {
	set := make(map[[2]int]bool, len(links))
	for _, l := range links {
		set[[2]int{min(l[0], l[1]), max(l[0], l[1])}] = true
	}
	return set
}

// TestClusterRecoversBrokenMesh drives the coordinator's two-phase
// recovery: a run aborted by an immediate deadline breaks the mesh on
// every worker; the next healthy run must transparently reset and
// reconnect the whole cluster and then succeed with no lazy dials.
func TestClusterRecoversBrokenMesh(t *testing.T) {
	const rows, cols, s, msgLen = 4, 4, 2, 512
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c := adoptCluster(t, Spec{P: rows * cols, Links: routes}, 2)

	good := RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	}
	if _, err := c.Run(good); err != nil {
		t.Fatalf("first run: %v", err)
	}
	doomed := good
	doomed.RunTimeoutNs = 1 // aborts while the cluster is still arming
	if _, err := c.Run(doomed); err == nil {
		t.Fatal("1ns-deadline run succeeded")
	}
	res, err := c.Run(good)
	if err != nil {
		t.Fatalf("run after recovery: %v", err)
	}
	if res.LazyDials != 0 {
		t.Fatalf("recovered mesh made %d lazy dials", res.LazyDials)
	}
	if got := c.Resets(); got == 0 {
		t.Fatal("broken mesh recovered without a coordinator reset")
	}
}

// TestClusterRejectsBadRunSpec: a run no worker can build (unknown
// algorithm) must fail cleanly without burning a recovery cycle, and
// the cluster must stay usable.
func TestClusterRejectsBadRunSpec(t *testing.T) {
	const rows, cols, s, msgLen = 2, 4, 2, 256
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c := adoptCluster(t, Spec{P: rows * cols, Links: routes}, 2)

	_, err := c.Run(RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "No_Such_Alg",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	})
	if err == nil || !strings.Contains(err.Error(), "No_Such_Alg") {
		t.Fatalf("bad algorithm error = %v", err)
	}
	if got := c.Resets(); got != 0 {
		t.Fatalf("bad run spec burned %d recovery cycles", got)
	}
	if _, err := c.Run(RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	}); err != nil {
		t.Fatalf("cluster unusable after rejected spec: %v", err)
	}
}

// TestClusterSpawnedProcesses is the real thing in miniature: the
// coordinator re-executes this test binary as 4 worker OS processes
// (via TestMain/MaybeWorker) and runs a p=64 sparse broadcast across
// them with zero lazy dials. The p=256 version is TestFigClusterShape.
func TestClusterSpawnedProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const rows, cols, s, msgLen = 8, 8, 4, 512
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c, err := Start(Spec{Workers: 4, P: rows * cols, Links: routes})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pids := map[int]bool{os.Getpid(): true}
	for _, pid := range c.WorkerPIDs() {
		pids[pid] = true
	}
	if len(pids) != 5 {
		t.Fatalf("expected 4 distinct worker processes plus the test, got PIDs %v", c.WorkerPIDs())
	}
	res, err := c.Run(RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Procs) != rows*cols {
		t.Fatalf("%d proc stats, want %d", len(res.Procs), rows*cols)
	}
	if res.LazyDials != 0 {
		t.Fatalf("%d lazy dials across processes, want 0", res.LazyDials)
	}
	if c.InterLinks() == 0 {
		t.Fatal("partition reports no inter-worker links; the broadcast never crossed a process boundary")
	}
}

// TestFigClusterShape checks the shape of the cluster figure's largest
// point: the paper's p=256 mesh, broadcast with Br_Lin E(4) across 4
// worker OS processes over the sparse dial plan, with zero lazy dials.
// stpworker -workers 4 -rows 16 -cols 16 -sparse -fail-on-lazy is the
// same measurement.
func TestFigClusterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and builds a p=256 mesh")
	}
	const rows, cols, s, msgLen = 16, 16, 4, 1024
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c, err := Start(Spec{Workers: 4, P: rows * cols, Links: routes})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pids := map[int]bool{os.Getpid(): true}
	for _, pid := range c.WorkerPIDs() {
		pids[pid] = true
	}
	if len(pids) != 5 {
		t.Fatalf("expected 4 distinct worker processes plus the test, got PIDs %v", c.WorkerPIDs())
	}
	res, err := c.Run(RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Procs) != rows*cols {
		t.Fatalf("%d proc stats, want %d", len(res.Procs), rows*cols)
	}
	if res.LazyDials != 0 {
		t.Fatalf("%d lazy dials across processes, want 0", res.LazyDials)
	}
	// The wire carries the barrier's W·⌈log2 W⌉ = 8 leader links plus the
	// few links on which Br_Lin's E(4) bundles cross a range boundary. A
	// plan that still dissemination-linked every rank would cross
	// hundreds of times (766 at p=256).
	if n := c.InterLinks(); n < 8 || n > rows*cols/4 {
		t.Fatalf("%d inter-worker links, want the 8 leader links plus a handful of schedule links", n)
	}
}

// TestClusterRecoversLinkLostBetweenRuns: an inter-worker connection
// breaks between two runs, seen by one worker only — a corrupt frame
// fails its reader, while the peer's end of the connection stays open
// and healthy-looking. There is no arm round trip to report the damage,
// so the next run starts on both workers: the worker with the broken
// mesh refuses it and closes its connections, and the peer must fail
// fast on those — well inside the minute-long RecvTimeout — so one
// reset and the retry succeed.
func TestClusterRecoversLinkLostBetweenRuns(t *testing.T) {
	const rows, cols, s, msgLen = 4, 4, 2, 512
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	// Adopted workers whose control connections record the rank
	// addresses the workers report.
	var mu sync.Mutex
	addrs := map[int]string{}
	// The plan holds a wire pair at worker 0's top rank: every connection
	// accepted at that rank's listener is dialed by a higher rank, all
	// in worker 1.
	top := rows*cols/2 - 1
	links := append(routes, [2]int{top, top + 1})
	c, err := Start(Spec{P: rows * cols, Workers: 2, Links: links, Adopt: true, OnListen: func(addr string) {
		for i := 0; i < 2; i++ {
			go func() {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer nc.Close()
				w := &worker{cc: newConn(addrTap{nc, &mu, addrs})}
				if err := w.cc.send(msg{Type: "hello", PID: os.Getpid()}); err != nil {
					t.Error(err)
					return
				}
				if err := w.serve(); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs := RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	}
	if _, err := c.Run(rs); err != nil {
		t.Fatalf("first run: %v", err)
	}
	// A connection accepted at worker 0's top rank crosses workers, and
	// its dialing end is worker 1's.
	if got := c.Ranges()[0][1] - 1; got != top {
		t.Fatalf("worker 0's top rank is %d, want %d", got, top)
	}
	mu.Lock()
	topAddr := addrs[top]
	mu.Unlock()
	_, dialer := socketAt(t, netip.MustParseAddrPort(topAddr))
	fd, _ := socketAt(t, dialer)
	pumps := func() int {
		buf := make([]byte, 8<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "tcp.(*Machine).pump(")
	}
	before := pumps()
	// Epoch 0, tag 0, -1 parts: a header no frame reader accepts.
	if _, err := syscall.Write(fd, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	// Worker 0's reader fails between runs and exits.
	for deadline := time.Now().Add(5 * time.Second); pumps() >= before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the corrupt frame did not fail worker 0's reader")
		}
	}
	start := time.Now()
	res, err := c.Run(rs)
	if err != nil {
		t.Fatalf("run after the lost link: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("run after the lost link took %v: a peer waited out its receive deadline", d)
	}
	if got := c.Resets(); got != 1 {
		t.Fatalf("%d resets, want 1", got)
	}
	if res.LazyDials != 0 {
		t.Fatalf("recovered mesh made %d lazy dials", res.LazyDials)
	}
}

// addrTap is a worker's control connection that merges the rank
// addresses of every addrs message the worker sends into addrs.
type addrTap struct {
	net.Conn
	mu    *sync.Mutex
	addrs map[int]string
}

func (a addrTap) Write(b []byte) (int, error) {
	var m msg
	if json.Unmarshal(b, &m) == nil && m.Type == "addrs" {
		a.mu.Lock()
		for r, addr := range m.Addrs {
			a.addrs[r] = addr
		}
		a.mu.Unlock()
	}
	return a.Conn.Write(b)
}

// socketAt finds a connected socket of this process whose local address
// is local, returning its descriptor and its peer's address.
func socketAt(t *testing.T, local netip.AddrPort) (int, netip.AddrPort) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	addrOf := func(sa syscall.Sockaddr, err error) netip.AddrPort {
		if in4, ok := sa.(*syscall.SockaddrInet4); ok && err == nil {
			return netip.AddrPortFrom(netip.AddrFrom4(in4.Addr), uint16(in4.Port))
		}
		return netip.AddrPort{}
	}
	for _, e := range ents {
		fd, err := strconv.Atoi(e.Name())
		if err != nil || addrOf(syscall.Getsockname(fd)) != local {
			continue
		}
		if peer := addrOf(syscall.Getpeername(fd)); peer.IsValid() { // not the listener
			return fd, peer
		}
	}
	t.Fatalf("no connected socket at %v", local)
	return 0, netip.AddrPort{}
}

// TestClusterRunAllocationBudget counts what one warm cluster run
// allocates across the coordinator and its two in-process workers:
// control messages, payloads, bundle checks and the engine run itself.
// The least of several measurements, so a GC or a first-of-its-size
// buffer growth does not count.
func TestClusterRunAllocationBudget(t *testing.T) {
	const rows, cols, s, msgLen = 4, 4, 2, 1024
	routes, sources := testRoutes(t, rows, cols, s, msgLen)
	c := adoptCluster(t, Spec{P: rows * cols, Links: routes}, 2)
	rs := RunSpec{
		Rows: rows, Cols: cols, Sources: sources, Algorithm: "Br_Lin",
		MsgBytes: msgLen, RecvTimeoutNs: int64(time.Minute),
	}
	run := func() {
		if _, err := c.Run(rs); err != nil {
			t.Fatal(err)
		}
	}
	run()
	least := math.Inf(1)
	for i := 0; i < 8; i++ {
		least = min(least, testing.AllocsPerRun(10, run))
	}
	t.Logf("%.0f allocations per cluster run", least)
	if least > clusterRunAllocBudget {
		t.Errorf("%.0f allocations per cluster run, budget %d", least, clusterRunAllocBudget)
	}
}

// TestSpawnEnvSharesHostCPUs pins a spawned worker's environment: the
// control address always, and GOMAXPROCS as the worker's share of the
// host unless the coordinator's environment sets it.
func TestSpawnEnvSharesHostCPUs(t *testing.T) {
	lookup := func(env []string, key string) string {
		v := ""
		for _, kv := range env { // the last entry wins, as in os/exec
			if val, ok := strings.CutPrefix(kv, key+"="); ok {
				v = val
			}
		}
		return v
	}
	n := runtime.NumCPU()
	parent := []string{"HOME=/nonexistent", "GOMAXPROCS="}
	for _, tc := range []struct{ workers, want int }{{1, n}, {n, 1}, {n + 1, 1}, {3 * n, 1}} {
		env := spawnEnv(parent, "127.0.0.1:9", tc.workers, n)
		if got := lookup(env, "GOMAXPROCS"); got != strconv.Itoa(tc.want) {
			t.Errorf("%d workers on %d CPUs: GOMAXPROCS=%q, want %d", tc.workers, n, got, tc.want)
		}
		if got := lookup(env, WorkerEnv); got != "127.0.0.1:9" {
			t.Errorf("%d workers: %s=%q", tc.workers, WorkerEnv, got)
		}
	}
	env := spawnEnv([]string{"GOMAXPROCS=3", "HOME=/nonexistent"}, "127.0.0.1:9", 1, n)
	if got := lookup(env, "GOMAXPROCS"); got != "3" {
		t.Errorf("the coordinator's GOMAXPROCS=3 became %q", got)
	}
	if got := lookup(env, WorkerEnv); got != "127.0.0.1:9" {
		t.Errorf("with GOMAXPROCS set: %s=%q", WorkerEnv, got)
	}
	if len(env) != 3 {
		t.Errorf("environment %q: want the parent's two entries and the control address", env)
	}
}

// TestWorkerCompilesEachRunSpecOnce runs one worker owning every rank of
// a 4×4 mesh: two runs of one run spec execute the same compiled program
// — the worker binds an instance once — and a run with other sources
// executes another. It reads the worker's memo after each run, before
// any lookup of its own could fill it.
func TestWorkerCompilesEachRunSpecOnce(t *testing.T) {
	const rows, cols = 4, 4
	m, err := tcp.NewWorkerMachine(rows*cols, 0, rows*cols, []int{0}, tcp.Options{Links: [][2]int{}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.ConnectMesh(context.Background(), m.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	w := &worker{m: m, lo: 0, hi: rows * cols}
	// run executes rs and returns how many instances the worker's memo
	// then holds (core.Bindings' occupied slots: used != 0).
	run := func(rs RunSpec) int {
		t.Helper()
		if d := w.run(&rs); d.Err != "" {
			t.Fatalf("run %+v: %s", rs, d.Err)
		}
		slots, held := reflect.ValueOf(&w.binds).Elem().FieldByName("slots"), 0
		for i := range slots.Len() {
			if slots.Index(i).FieldByName("used").Uint() != 0 {
				held++
			}
		}
		return held
	}
	program := func(rs RunSpec) *comm.Program {
		t.Helper()
		_, bound, err := w.bind(&rs)
		if err != nil {
			t.Fatal(err)
		}
		return core.ProgramOf(bound)
	}
	rs := RunSpec{Rows: rows, Cols: cols, Sources: []int{0, 5, 10, 15}, Algorithm: "Br_Lin", MsgBytes: 64, RecvTimeoutNs: int64(time.Minute)}
	if held := run(rs); held != 1 {
		t.Fatalf("after one run the worker holds %d compiled instances, want 1", held)
	}
	rs.Sources = []int{0, 5, 10, 15} // an equal spec in a fresh slice, as a decoded run message has
	if held := run(rs); held != 1 {
		t.Errorf("after two runs of one run spec the worker holds %d compiled instances, want 1", held)
	}
	first := program(rs)
	other := rs
	other.Sources = []int{1, 6}
	if held := run(other); held != 2 {
		t.Errorf("after a run with other sources the worker holds %d compiled instances, want 2", held)
	}
	if p := program(other); p == nil || p == first {
		t.Error("a run with other sources executed the first run's program")
	}
	if p := program(rs); p != first {
		t.Errorf("the first run spec's program changed (%p, then %p)", first, p)
	}
}
