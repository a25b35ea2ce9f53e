package tcp

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
)

// starLinks is a fan-out plan: rank 0 sends to every other rank.
func starLinks(p int) [][2]int {
	links := make([][2]int, 0, p-1)
	for j := 1; j < p; j++ {
		links = append(links, [2]int{0, j})
	}
	return links
}

// TestSparseSetupOpensOnlyPlannedConns: a sparse plan must dial exactly
// its pair count, not the p(p−1)/2 mesh, and the planned links must
// carry traffic without any further dial.
func TestSparseSetupOpensOnlyPlannedConns(t *testing.T) {
	const p = 16
	m, err := NewMachine(p, Options{Links: starLinks(p)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, want := m.PlannedPairs(), p-1; got != want {
		t.Fatalf("planned %d pairs, want %d", got, want)
	}
	if got := m.ConnsOpened(); got != p-1 {
		t.Fatalf("setup opened %d conns, want %d (full mesh would be %d)", got, p-1, p*(p-1)/2)
	}
	if _, err := m.Run(Options{RecvTimeout: 10 * time.Second}, func(pr *Proc) {
		msg := comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: []byte("hi")}}}
		if pr.Rank() == 0 {
			for j := 1; j < p; j++ {
				pr.Send(j, msg)
			}
		} else {
			got := pr.Recv(0)
			if string(got.Parts[0].Data) != "hi" {
				panic("bad payload")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.ConnsOpened(); got != p-1 {
		t.Errorf("planned sends dialed extra conns: %d total, want %d", got, p-1)
	}
}

// exchangeProgram compiles a p-rank program in which ranks a and b swap
// their bundles: a sends first, b answers over the same pair.
func exchangeProgram(t *testing.T, p, a, b int) *comm.Program {
	t.Helper()
	prog, err := comm.Script{Regs: 2, Rank: func(bd *comm.Builder, r int) {
		switch r {
		case a:
			bd.Send(b, 0)
			bd.Recv(b, 1)
		case b:
			bd.Recv(a, 1)
			bd.Send(a, 0)
		}
	}}.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runProgram runs prog on every rank of m, each entering with a bundle
// of its own rank's byte.
func runProgram(m *Machine, prog *comm.Program) error {
	_, err := m.Run(Options{RecvTimeout: 10 * time.Second}, func(pr *Proc) {
		prog.Run(pr, comm.Message{Tag: 1, Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte{byte(pr.Rank())}}}})
	})
	return err
}

// TestPrepareDialsMissingPairsOnce: on a machine planned with {0,1},
// Prepare of a program that uses 0–2 dials exactly that one pair —
// counted in LazyDials — the program runs over it, and a second Prepare
// dials nothing and allocates nothing.
func TestPrepareDialsMissingPairsOnce(t *testing.T) {
	const p = 3
	m, err := NewMachine(p, Options{Links: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.ConnsOpened(); got != 1 {
		t.Fatalf("setup opened %d conns, want 1", got)
	}
	prog := exchangeProgram(t, p, 0, 2)
	ctx := context.Background()
	for run := 0; run < 2; run++ {
		if err := m.Prepare(ctx, prog); err != nil {
			t.Fatalf("run %d: Prepare: %v", run, err)
		}
		if opened, lazy := m.ConnsOpened(), m.LazyDials(); opened != 2 || lazy != 1 {
			t.Fatalf("run %d: %d conns opened, %d lazy dials, want 2 and 1", run, opened, lazy)
		}
		if err := runProgram(m, prog); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { m.Prepare(ctx, prog) }); allocs != 0 {
		t.Errorf("Prepare with no pair missing allocated %.0f times, want 0", allocs)
	}
}

// TestSendOverUndialedPairFailsRun: Run never dials. A send over a pair
// the plan lacks and no Prepare dialed fails the run at once with an
// error naming both ranks, while the receiver blocked on it unwinds.
func TestSendOverUndialedPairFailsRun(t *testing.T) {
	const p = 3
	m, err := NewMachine(p, Options{Links: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	_, err = m.Run(Options{RecvTimeout: time.Minute}, func(pr *Proc) {
		switch pr.Rank() {
		case 0:
			pr.Send(2, comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: []byte("x")}}})
		case 2:
			pr.Recv(0)
		}
	})
	if err == nil {
		t.Fatal("send over an undialed pair succeeded")
	}
	for _, want := range []string{"tcp: rank 0: send to 2", "no connection between ranks 0 and 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("failed run took %v to return", d)
	}
	if got := m.ConnsOpened(); got != 1 {
		t.Errorf("the run dialed: %d conns opened, want 1", got)
	}
}

// TestWorkerPairsExchangeThroughMemory: a worker machine's ranks talk
// to each other through memory, and only pairs that cross workers get a
// socket. Rank 0 sends to rank 1 (its own worker's rank) and to rank 2
// (the other half's leader), clobbering its buffer after each Send. The
// plan names the inside pair too, yet each half plans — and the mesh
// dials — only the 0–2 pair; Prepare dials nothing for 0–1; both
// receivers get the bytes sent. A one-worker cluster follows the same
// rule: it owns every rank, and plans and dials nothing.
func TestWorkerPairsExchangeThroughMemory(t *testing.T) {
	const p = 4
	for _, tc := range []struct {
		name    string
		ranges  [][2]int
		planned []int // PlannedPairs per worker
		conns   int   // ConnsOpened over all workers
	}{
		{"two workers", [][2]int{{0, 2}, {2, 4}}, []int{1, 1}, 1},
		{"one worker", [][2]int{{0, p}}, []int{0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := workerMesh(t, p, tc.ranges, [][2]int{{0, 1}, {0, 2}})
			prog, err := comm.Script{Regs: 1, Rank: func(bd *comm.Builder, r int) {
				switch r {
				case 0:
					bd.Send(1, 0)
					bd.Send(2, 0)
				case 1, 2:
					bd.Recv(0, 0)
				}
			}}.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			conns := func() (n int) {
				for _, m := range ms {
					n += m.ConnsOpened()
				}
				return n
			}
			for w, m := range ms {
				if got := m.PlannedPairs(); got != tc.planned[w] {
					t.Errorf("worker %d plans %d pairs, want %d (the pairs crossing workers)", w, got, tc.planned[w])
				}
				if err := m.Prepare(context.Background(), prog); err != nil {
					t.Fatalf("worker %d: Prepare: %v", w, err)
				}
				if got := m.LazyDials(); got != 0 {
					t.Errorf("worker %d: Prepare dialed %d pairs, want 0", w, got)
				}
			}
			if got := conns(); got != tc.conns {
				t.Errorf("%d conns opened, want %d (the pairs crossing workers)", got, tc.conns)
			}
			for run := 1; run <= 2; run++ {
				_, errs := runWorkers(ms, uint32(run), Options{RecvTimeout: 10 * time.Second}, func(pr *Proc) {
					switch pr.Rank() {
					case 0:
						for _, dst := range []int{1, 2} {
							buf := []byte("original")
							pr.Send(dst, comm.Message{Tag: 3, Parts: []comm.Part{{Origin: 0, Data: buf}}})
							copy(buf, "CLOBBER!")
						}
					case 1, 2:
						m := pr.Recv(0)
						if m.Tag != 3 || len(m.Parts) != 1 {
							t.Errorf("run %d rank %d: got tag %d with %d parts, want tag 3 with 1", run, pr.Rank(), m.Tag, len(m.Parts))
						} else if !bytes.Equal(m.Parts[0].Data, []byte("original")) {
							t.Errorf("run %d rank %d: got %q, want \"original\": the sender's buffer was aliased", run, pr.Rank(), m.Parts[0].Data)
						}
					}
				})
				for w, err := range errs {
					if err != nil {
						t.Fatalf("run %d worker %d: %v", run, w, err)
					}
				}
			}
			if got := conns(); got != tc.conns {
				t.Errorf("the runs dialed: %d conns opened, want %d", got, tc.conns)
			}
		})
	}
}

// TestPrepareHonorsContextCancel: pre-run dials into a black hole give
// up as soon as Prepare's context is canceled, failing that run only,
// and leave nothing running — the machine then rebuilds its mesh, runs
// a planned program, and is back at the goroutines it started with. Two
// ranks dial at once (Prepare of no program dials every pair), so a
// dial left behind per rank would show past waitGoroutinesSettle's
// slack.
func TestPrepareHonorsContextCancel(t *testing.T) {
	const p = 4
	release := make(chan struct{})
	defer close(release)
	var hole atomic.Bool
	m, err := NewMachine(p, Options{
		Links: [][2]int{{0, 1}},
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			if hole.Load() {
				select { // a black-holed peer: connect never completes
				case <-ctx.Done():
				case <-release:
				}
				return nil, errors.New("black hole")
			}
			return dialTCP(ctx, addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	baseline := runtime.NumGoroutine()

	hole.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = m.Prepare(ctx, nil)
	if err == nil {
		t.Fatal("Prepare over black-holed pairs succeeded")
	}
	// Prompt means "the cancel propagated", not "the dial timed out":
	// well under both handshakeTimeout and any OS connect timeout.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled Prepare took %v to return, want prompt unwind", d)
	}
	hole.Store(false)
	if err := runProgram(m, exchangeProgram(t, p, 0, 1)); err != nil {
		t.Fatalf("planned program after the canceled Prepare: %v", err)
	}
	if got := m.LazyDials(); got != 0 {
		t.Errorf("%d lazy dials, want 0: the canceled dials never connected", got)
	}
	waitGoroutinesSettle(t, baseline)
}

// TestSparseReconnectRebuildsOnlyPlannedPairs is the reconnect-after-
// abort contract on a sparse machine: the rebuild redials exactly the
// planned pair set — not the full mesh, and not pairs Prepare dialed
// before a run — and counts one reconnect.
func TestSparseReconnectRebuildsOnlyPlannedPairs(t *testing.T) {
	const p = 8
	links := [][2]int{{0, 1}, {1, 2}, {2, 3}} // 3 planned pairs of 28 possible
	m, err := NewMachine(p, Options{Links: links})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.ConnsOpened(); got != 3 {
		t.Fatalf("setup opened %d conns, want 3", got)
	}
	// Run 1: dial one extra (0–7) before the run, then abort via rank
	// panic.
	if err := m.Prepare(context.Background(), exchangeProgram(t, p, 0, 7)); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(Options{RecvTimeout: 10 * time.Second}, func(pr *Proc) {
		msg := comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: []byte("x")}}}
		switch pr.Rank() {
		case 0:
			pr.Send(7, msg)
			panic("boom")
		case 7:
			pr.Recv(0)
			pr.Recv(0) // never arrives: unwinds on the abort
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("aborted run returned %v, want the rank panic", err)
	}
	after := m.ConnsOpened() // 3 planned + 1 dialed before the run
	if after != 4 {
		t.Fatalf("after the pre-run dial and abort: %d conns opened, want 4", after)
	}
	// Run 2: the rebuild must redial the 3 planned pairs only.
	if _, err := m.Run(Options{RecvTimeout: 10 * time.Second}, func(pr *Proc) {
		msg := comm.Message{Tag: 1, Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte("y")}}}
		if pr.Rank() == 0 {
			pr.Send(1, msg)
		} else if pr.Rank() == 1 {
			pr.Recv(0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Reconnects(); got != 1 {
		t.Errorf("Reconnects() = %d, want 1", got)
	}
	if got := m.ConnsOpened(); got != after+3 {
		t.Errorf("rebuild opened %d conns (total %d), want 3 (total %d) — the pre-run 0–7 pair must not be rebuilt", got-after, got, after+3)
	}
}

// TestPlannedLinkValidation: out-of-range links are a setup error; self
// links and duplicates are tolerated and collapse away.
func TestPlannedLinkValidation(t *testing.T) {
	if _, err := NewMachine(4, Options{Links: [][2]int{{0, 4}}}); err == nil {
		t.Error("out-of-range link accepted")
	}
	m, err := NewMachine(4, Options{Links: [][2]int{{1, 1}, {0, 1}, {1, 0}, {0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.PlannedPairs(); got != 1 {
		t.Errorf("planned %d pairs, want 1 (self links and duplicates collapse)", got)
	}
}

// flakyWriteConn fails every write after the first (the handshake), so
// the first frame write errors.
type flakyWriteConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *flakyWriteConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		return 0, errors.New("injected link failure")
	}
	return c.Conn.Write(b)
}

// TestSendFailureAttribution: a failed socket write must surface as the
// sending rank's root-cause error — naming the rank and the link — not
// as an anonymous unwind, and the machine must survive into the next run
// via reconnect.
func TestSendFailureAttribution(t *testing.T) {
	var dials atomic.Int64
	m, err := NewMachine(2, Options{
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			c, err := dialTCP(ctx, addr)
			if err != nil {
				return nil, err
			}
			// Only the first mesh build gets the flaky conn; the rebuild
			// dials clean ones.
			if dials.Add(1) == 1 {
				return &flakyWriteConn{Conn: c}, nil
			}
			return c, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.Run(Options{RecvTimeout: 10 * time.Second}, func(pr *Proc) {
		// Rank 1 dialed, so rank 1's writes ride the flaky conn.
		if pr.Rank() == 1 {
			pr.Send(0, comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 1, Data: []byte("x")}}})
		} else {
			pr.Recv(1)
		}
	})
	if err == nil {
		t.Fatal("write failure did not fail the run")
	}
	for _, want := range []string{"tcp: rank 1: send to 0", "injected link failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	if _, err := m.Run(Options{RecvTimeout: 10 * time.Second}, func(pr *Proc) {
		if pr.Rank() == 0 {
			pr.Send(1, comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: []byte("y")}}})
		} else {
			pr.Recv(0)
		}
	}); err != nil {
		t.Fatalf("machine did not survive the write failure: %v", err)
	}
	if got := m.Reconnects(); got != 1 {
		t.Errorf("Reconnects() = %d, want 1", got)
	}
}

// TestSparseBroadcastP128 is the scale gate: a 128-rank broadcast over
// a sparse dissemination-pattern mesh — a scale where the full
// p(p−1)/2 = 8128-connection mesh made real-byte runs impractical. The
// binomial tree's hops are exactly the planned links, so the run needs
// no pair beyond them and setup opens ≤ the route count.
func TestSparseBroadcastP128(t *testing.T) {
	if testing.Short() {
		t.Skip("128-rank socket machine")
	}
	runSparseBroadcast(t, 128)
}

// TestSparseBroadcastP64Smoke is the CI smoke job's entry point: the
// same sparse broadcast at p=64.
func TestSparseBroadcastP64Smoke(t *testing.T) {
	runSparseBroadcast(t, 64)
}

func runSparseBroadcast(t *testing.T, p int) {
	t.Helper()
	links := disseminationLinks(p)
	m, err := NewMachine(p, Options{Links: links})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	routes := len(links)
	if opened := m.ConnsOpened(); opened > routes {
		t.Fatalf("sparse setup opened %d conns, more than the %d routes", opened, routes)
	}
	if opened, full := m.ConnsOpened(), p*(p-1)/2; opened >= full {
		t.Fatalf("sparse setup opened %d conns, not sparse vs the %d full mesh", opened, full)
	}
	payload := bytes.Repeat([]byte("s2p"), 341) // ~1KiB
	got := make([][]byte, p)
	if _, err := m.Run(Options{RecvTimeout: 30 * time.Second}, func(pr *Proc) {
		// Recursive-doubling broadcast from rank 0: after the round with
		// step k, every rank < 2k holds the payload. Each hop r → r+k is
		// a dissemination link, so the whole tree rides planned conns.
		r := pr.Rank()
		var data []byte
		if r == 0 {
			data = payload
		}
		for k := 1; k < p; k <<= 1 {
			switch {
			case r < k:
				if r+k < p {
					pr.Send(r+k, comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: data}}})
				}
			case r < 2*k:
				in := pr.Recv(r - k)
				data = append([]byte(nil), in.Parts[0].Data...)
			}
		}
		got[r] = data
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if !bytes.Equal(got[r], payload) {
			t.Fatalf("rank %d did not receive the broadcast (%d bytes)", r, len(got[r]))
		}
	}
	if opened := m.ConnsOpened(); opened > routes {
		t.Errorf("broadcast dialed beyond its routes: %d conns opened, routes %d", opened, routes)
	}
}
