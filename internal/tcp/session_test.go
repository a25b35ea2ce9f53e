package tcp

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
)

// beginHook is the sockets transport with fn run first in Begin: the
// window in which the core already publishes the new run but the pumps
// have not seen its epoch published yet.
type beginHook struct {
	transport
	fn func()
}

func (h beginHook) Begin() {
	h.fn()
	h.transport.Begin()
}

// TestStaleFrameDroppedBeforeBegin: a frame of the previous run that a
// pump reads after the core armed the next run, but before Begin, must
// be dropped — not pushed into the new run's mailbox — while a frame of
// the new run arriving in the same window is held and then delivered.
func TestStaleFrameDroppedBeforeBegin(t *testing.T) {
	m, err := newMachine(2, 0, 2, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	begins := 0
	m.core = engine.New("tcp", 2, 0, 2, []int{0}, beginHook{transport{m}, func() {
		if begins++; begins != 2 {
			return
		}
		// Rank 1's end of the pair feeds rank 0's pump: run 1's frame,
		// then run 2's, which the pump must hold until Begin.
		sc := getScratch()
		defer putScratch(sc)
		for _, f := range []struct {
			epoch uint32
			data  string
		}{{1, "stale"}, {2, "fresh"}} {
			if err := writeFrameTo(m.ends[1].conns[0], f.epoch, comm.Message{Parts: []comm.Part{{Origin: 1, Data: []byte(f.data)}}}, sc); err != nil {
				t.Error(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); !stackHas("tcp.(*Machine).hold"); {
			if time.Now().After(deadline) {
				t.Error("the pump never held the new run's frame")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}})
	if err := m.connect(nil, m.pairs); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Run(Options{}, func(*Proc) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
		if pr.Rank() == 0 {
			if got := string(pr.Recv(1).Parts[0].Data); got != "fresh" {
				t.Errorf("run 2 received %q, want the run's own frame", got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// stackHas reports whether some goroutine's stack mentions fn.
func stackHas(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}

// TestMachineReconnectsAfterAbort panics a rank (which tears the mesh
// down), then runs again on the same machine: the next Run must rebuild
// the mesh transparently and succeed, counting one reconnect.
func TestMachineReconnectsAfterAbort(t *testing.T) {
	const p = 4
	m, err := NewMachine(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
		if pr.Rank() == 2 {
			panic("rank 2 killed")
		}
		pr.Recv(2)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 killed") {
		t.Fatalf("abort misreported: %v", err)
	}
	for r := 0; r < 3; r++ {
		if _, err := m.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
			pr.Barrier()
			pr.Send((pr.Rank()+1)%p, comm.Message{Tag: r, Parts: []comm.Part{{Origin: pr.Rank()}}})
			pr.Recv((pr.Rank() + p - 1) % p)
		}); err != nil {
			t.Fatalf("post-abort run %d failed: %v", r, err)
		}
	}
	if n := m.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1 (one abort, then healthy runs)", n)
	}
}

// TestMachineReconnectsAfterMidRunConnectionKill cuts a socket mid-run
// (the serving-workload failure mode): the run must fail naming the
// transport, and the next run over the same machine must succeed after a
// mesh rebuild.
func TestMachineReconnectsAfterMidRunConnectionKill(t *testing.T) {
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
	m, err := NewMachine(2, Options{Dial: grabDial})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	_, err = m.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
		if pr.Rank() == 0 {
			<-release
			pr.Recv(1)
		} else {
			mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			mu.Unlock()
			close(release)
			pr.Recv(0)
		}
	})
	if err == nil {
		t.Fatal("mid-run connection kill not reported")
	}
	if _, err := m.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
		pr.Send(1-pr.Rank(), comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte("alive")}}})
		if got := pr.Recv(1 - pr.Rank()); string(got.Parts[0].Data) != "alive" {
			t.Errorf("rank %d after reconnect: %+v", pr.Rank(), got)
		}
	}); err != nil {
		t.Fatalf("run after mid-run kill failed: %v", err)
	}
	if n := m.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
}

// TestMachineCloseJoinsPumps: after Close, every reader pump and rank
// goroutine must be gone; Run on a closed machine errors.
func TestMachineCloseJoinsPumps(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m, err := NewMachine(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(Options{}, func(pr *Proc) { pr.Barrier() }); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := m.Run(Options{}, func(*Proc) {}); err == nil {
		t.Fatal("Run on closed machine accepted")
	}
	waitGoroutinesSettle(t, baseline)
}
