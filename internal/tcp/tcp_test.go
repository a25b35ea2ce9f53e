package tcp

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/topology"
)

// runOnce opens a machine of p processors, runs fn on it once and closes
// it, applying no deadlines.
func runOnce(p int, fn func(*Proc)) (Result, error) { return runOpts(p, Options{}, fn) }

// runOpts is runOnce with options.
func runOpts(p int, opts Options, fn func(*Proc)) (Result, error) {
	m, err := NewMachine(p, opts)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := comm.Message{Tag: 42, Parts: []comm.Part{
		{Origin: 3, Data: []byte("hello")},
		{Origin: 9, Data: nil},
		{Origin: 0, Data: bytes.Repeat([]byte{0xAB}, 10000)},
	}}
	if err := writeFrame(&buf, 9, m); err != nil {
		t.Fatal(err)
	}
	got, epoch, err := readFrame(&buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 42 || len(got.Parts) != 3 || epoch != 9 {
		t.Fatalf("frame header: %+v (epoch %d)", got, epoch)
	}
	for i := range m.Parts {
		if got.Parts[i].Origin != m.Parts[i].Origin {
			t.Fatalf("part %d origin %d", i, got.Parts[i].Origin)
		}
		if !bytes.Equal(got.Parts[i].Data, m.Parts[i].Data) {
			t.Fatalf("part %d payload corrupted", i)
		}
	}
}

func TestFrameRejectsCorruptHeader(t *testing.T) {
	// A negative part count must not allocate.
	buf := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	got, _, err := readFrame(bytes.NewReader(buf), 3, 5)
	if err == nil {
		t.Fatalf("corrupt frame accepted: %+v", got)
	}
	// PR 2 contract: engine errors name the affected rank and its peer.
	for _, want := range []string{"from rank 3", "at rank 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("corrupt-frame error %q does not contain %q", err, want)
		}
	}
}

// TestCoreAlgorithmsOverTCP runs every collective's algorithm registry
// over real sockets on a 3×4 machine — the same correctness matrix the
// other two engines pass, each rank's result checked by
// core.Collective.Check.
func TestCoreAlgorithmsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket matrix")
	}
	const r, c, s, size = 3, 4, 5, 24
	sources, err := dist.Cross().Sources(r, c, s)
	if err != nil {
		t.Fatal(err)
	}
	sizes := func(int) int { return size }
	for _, coll := range core.Collectives() {
		spec := core.Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
		switch caps := coll.Caps(); {
		case !caps.TakesSources:
			spec.Sources = core.AllRanksSources(r * c)
		case caps.SingleSource:
			spec.Sources = sources[:1]
		}
		for _, alg := range core.RegistryFor(coll) {
			out := make([]comm.Message, r*c)
			_, err := runOnce(r*c, func(p *Proc) {
				mine := core.InitialFor(coll, spec, p.Rank(), func(rank int) []byte { return coll.Payload(r*c, rank, size) })
				out[p.Rank()] = alg.Run(p, spec, mine)
			})
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			for rank, m := range out {
				if err := coll.Check(spec, sizes, rank, m); err != nil {
					t.Fatalf("%s: %v", alg.Name(), err)
				}
			}
		}
	}
}

func TestCollectivesOverTCP(t *testing.T) {
	const p = 8
	alg, err := core.ByNameFor(core.AllGather, "Ag_Ring")
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Rows: 1, Cols: p, Sources: core.AllRanksSources(p)}
	out := make([]comm.Message, p)
	_, err = runOnce(p, func(pr *Proc) {
		m := comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Data: core.AllGather.Payload(p, pr.Rank(), 1)}}}
		out[pr.Rank()] = alg.Run(pr, spec, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, m := range out {
		if err := core.AllGather.Check(spec, func(int) int { return 1 }, rank, m); err != nil {
			t.Fatal(err)
		}
	}
}

// waitGoroutinesSettle asserts the goroutine count returns to near the
// baseline: algorithm goroutines, reader pumps and watchers all unwound.
func waitGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after run: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestBarrierTrafficDoesNotInflateStats runs the same workload on the
// tcp and live engines: the algorithm-level operation counts must agree,
// and the barriers of a single-process machine put nothing on the wire
// (TestWorkerBarrierTokens covers the leaders' tokens on a cluster mesh).
func TestBarrierTrafficDoesNotInflateStats(t *testing.T) {
	const p = 4
	workload := func(rank int, send func(int, comm.Message), recv func(int) comm.Message, barrier func()) {
		barrier()
		if rank == 0 {
			send(1, comm.Message{Parts: []comm.Part{{Origin: 0, Data: []byte("x")}}})
		}
		if rank == 1 {
			recv(0)
		}
		barrier()
	}
	tcpRes, err := runOnce(p, func(pr *Proc) {
		workload(pr.Rank(), pr.Send, pr.Recv, pr.Barrier)
	})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := live.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	liveRes, err := lm.Run(live.Options{}, func(pr *live.Proc) {
		workload(pr.Rank(), pr.Send, pr.Recv, pr.Barrier)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Neither engine counts a token: the ranks share a process.
	if tcpRes.Totals != liveRes.Totals || tcpRes.BarrierSends != 0 || tcpRes.BarrierRecvs != 0 {
		t.Errorf("tcp totals %+v disagree with live %+v, or count barrier tokens", tcpRes.Totals, liveRes.Totals)
	}
}

// TestSubBarrierOverTCP: a subgroup's dissemination barrier
// (comm.Builder.Sub) uses ordinary tagged messages (tag -1), which must
// remain algorithm data on the tcp engine — only the reserved engine tag
// is barrier traffic, so the machine's own barrier between the subgroup's
// rounds must neither swallow a token nor be satisfied by one.
func TestSubBarrierOverTCP(t *testing.T) {
	members := []int{0, 2, 3}
	sc := comm.Script{Rank: func(b *comm.Builder, rank int) {
		for i := 0; i < 3; i++ {
			for local, m := range members {
				if m == rank {
					b.Sub(members, local)
					b.Barrier()
					b.Top()
				}
			}
			b.Barrier()
		}
	}}
	_, err := runOnce(4, func(p *Proc) { sc.Run(p, comm.Message{}) })
	if err != nil {
		t.Fatal(err)
	}
}

// TestDialRetryAbsorbsTransientFailures injects dial failures on the
// first two attempts per address; the retry loop must absorb them and
// the run must complete correctly.
func TestDialRetryAbsorbsTransientFailures(t *testing.T) {
	var mu sync.Mutex
	tries := make(map[string]int)
	flakyDial := func(addr string) (net.Conn, error) {
		mu.Lock()
		tries[addr]++
		n := tries[addr]
		mu.Unlock()
		if n <= 2 {
			return nil, fmt.Errorf("injected transient dial failure %d to %s", n, addr)
		}
		return net.Dial("tcp", addr)
	}
	res, err := runOpts(3, Options{Dial: flakyDial}, func(p *Proc) {
		next := (p.Rank() + 1) % 3
		p.Send(next, comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Data: []byte{byte(p.Rank())}}}})
		m := p.Recv((p.Rank() + 2) % 3)
		if m.Parts[0].Data[0] != byte((p.Rank()+2)%3) {
			t.Errorf("rank %d got wrong payload after flaky setup", p.Rank())
		}
	})
	if err != nil {
		t.Fatalf("transient dial failures not absorbed: %v", err)
	}
	if res.Sends != 3 || res.Recvs != 3 {
		t.Fatalf("counts %+v after retried setup, want 3 sends and 3 receives", res.Totals)
	}
	mu.Lock()
	defer mu.Unlock()
	for addr, n := range tries {
		if n < 3 {
			t.Errorf("address %s dialed only %d times; retry did not engage", addr, n)
		}
	}
}

// TestDialPermanentFailureErrorsOut: when every attempt fails, setup
// must return an error (and not deadlock the accept side).
func TestDialPermanentFailureErrorsOut(t *testing.T) {
	baseline := runtime.NumGoroutine()
	deadDial := func(addr string) (net.Conn, error) {
		return nil, fmt.Errorf("injected permanent dial failure to %s", addr)
	}
	done := make(chan error, 1)
	go func() {
		_, err := runOpts(3, Options{Dial: deadDial}, func(p *Proc) {})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
			t.Fatalf("permanent dial failure error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("setup deadlocked on permanent dial failure")
	}
	waitGoroutinesSettle(t, baseline)
}

// TestMidRunConnectionFailureIsAttributed closes one connection in the
// middle of a run (via the Dial hook, which hands the test the socket):
// the run must abort with an error naming the broken link, not hang and
// not misreport a graceful teardown.
func TestMidRunConnectionFailureIsAttributed(t *testing.T) {
	var mu sync.Mutex
	var conns []net.Conn
	grabDial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	release := make(chan struct{})
	_, err := runOpts(2, Options{Dial: grabDial, RecvTimeout: 5 * time.Second}, func(p *Proc) {
		if p.Rank() == 0 {
			<-release
			p.Recv(1) // the 1→0 socket is cut while we wait
		} else {
			mu.Lock()
			for _, c := range conns {
				c.Close() // cut every dialed socket mid-run
			}
			mu.Unlock()
			close(release)
			p.Recv(0) // blocks; must unwind when the machine aborts
		}
	})
	if err == nil {
		t.Fatal("mid-run connection failure not reported")
	}
	if !strings.Contains(err.Error(), "connection") && !strings.Contains(err.Error(), "send to") {
		t.Fatalf("failure not attributed to the transport: %v", err)
	}
}
