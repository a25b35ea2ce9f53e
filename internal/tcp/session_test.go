package tcp

import (
	"bytes"
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

// hookedMachine is a connected two-rank machine whose Begin runs hook
// first.
func hookedMachine(t *testing.T, hook func(m *Machine)) *Machine {
	t.Helper()
	m, err := newMachine(2, 0, 2, []int{0}, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The hooked core replaces the one newMachine built, whose goroutines
	// end with it; both close the same transport, which is idempotent.
	built := m.core
	m.core = engine.New("tcp", 2, 0, 2, []int{0}, beginHook{transport{m}, func() { hook(m) }})
	t.Cleanup(func() {
		m.Close()
		built.Close()
	})
	if err := m.connect(nil, m.pairs); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStaleFrameDroppedBeforeBegin: a frame of the previous run that a
// pump reads after the core armed the next run, but before Begin, must
// be dropped — not pushed into the new run's mailbox — while a frame of
// the new run arriving in the same window is held and then delivered.
func TestStaleFrameDroppedBeforeBegin(t *testing.T) {
	begins := 0
	m := hookedMachine(t, func(m *Machine) {
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
	})
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

// TestLinkLostBeforeArmingFailsRun: a pump that reads a dead connection
// before a run is armed finds no run to fail and only marks the mesh
// broken — possibly after Run's repair looked. The run armed next must
// then fail at once, not wait on the dead link until its receive
// deadline. The hook leaves the mark where such a pump would, just
// before Begin.
func TestLinkLostBeforeArmingFailsRun(t *testing.T) {
	m := hookedMachine(t, func(m *Machine) { m.broken.Store(true) })
	start := time.Now()
	_, err := m.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
		if pr.Rank() == 0 {
			pr.Recv(1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0: recv from 1: tcp: a connection failed before the run started") {
		t.Fatalf("run on a mesh marked broken before Begin: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("the run waited %v on the dead link", d)
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

// TestReadAfterReleaseFailsByName: a message whose run was reclaimed,
// read after a later run reused its storage, meets the test build's
// poison fill where the later run wrote nothing — a read past Release
// fails by name instead of seeing plausible bytes — while a message of a
// run nobody reclaimed keeps its bytes.
func TestReadAfterReleaseFailsByName(t *testing.T) {
	poisonReclaimed(t, 0xA5)
	m, err := NewMachine(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	send := func(n int, fill byte) []byte {
		t.Helper()
		var got []byte
		if _, err := m.Run(Options{RecvTimeout: 5 * time.Second}, func(pr *Proc) {
			if pr.Rank() == 0 {
				pr.Send(1, comm.Message{Parts: []comm.Part{{Data: bytes.Repeat([]byte{fill}, n)}}})
			} else {
				got = pr.Recv(0).Parts[0].Data
			}
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	send(1000, 1)
	m.Reclaim(m.Epoch()) // the machine recycles from here on

	kept := send(1000, 2)
	send(10, 3) // kept's run was not reclaimed: its storage is not reused
	if err := unpoisoned(kept); err != nil || !bytes.Equal(kept, bytes.Repeat([]byte{2}, 1000)) {
		t.Fatalf("a message of a run nobody reclaimed changed: %v", err)
	}

	released := send(1000, 4)
	m.Reclaim(m.Epoch())
	send(10, 5) // decoded into released's storage
	err = unpoisoned(released)
	if err == nil || !strings.Contains(err.Error(), "byte 10 of 1000 is the poison fill 0xa5") {
		t.Fatalf("read after Reclaim: %v, want the poison fill named at byte 10", err)
	}
}
