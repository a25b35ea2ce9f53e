package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/topology"
)

// flatCfg is a cost model with round numbers so tests can compute expected
// clocks by hand: send 10ns, recv 20ns, 1ns/byte copy both sides, wire
// startup 5ns, 1ns/hop, 1 byte/ns bandwidth, 2ns/byte combining.
func flatCfg() network.Config {
	return network.Config{
		Name:          "flat",
		SendOverhead:  10,
		RecvOverhead:  20,
		ByteCopyNS:    1,
		CombineByteNS: 2,
		NetStartup:    5,
		HopLatency:    1,
		LinkBandwidth: 1e9, // 1 byte per ns
		Switching:     network.Wormhole,
	}
}

func lineNet(t *testing.T, n int) *network.Network {
	t.Helper()
	topo := topology.MustMesh2D(1, n)
	nw, err := network.New(topo, topology.IdentityPlacement(n), flatCfg())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func run(t *testing.T, nw *network.Network, fn func(*Proc)) *Result {
	t.Helper()
	res, err := Run(nw, fn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func payload(n int) []byte { return make([]byte, n) }

func TestPingTiming(t *testing.T) {
	nw := lineNet(t, 2)
	res := run(t, nw, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, comm.Message{Parts: []comm.Part{{Origin: 0, Data: payload(100)}}})
		case 1:
			m := p.Recv(0)
			if m.Len() != 100 {
				t.Errorf("recv len = %d", m.Len())
			}
		}
	})
	// Sender: 10 (send) + 100 (copy) = 110. Wire: 5 + 1 + 100 = 106,
	// arrival 216. Receiver: max(0,216) + 20 + 100 = 336.
	if got := res.Procs[0].Finish; got != 110 {
		t.Errorf("sender finish = %d, want 110", got)
	}
	if got := res.Procs[1].Finish; got != 336 {
		t.Errorf("receiver finish = %d, want 336", got)
	}
	if res.Elapsed != 336 {
		t.Errorf("elapsed = %d, want 336", res.Elapsed)
	}
	if res.Procs[1].WaitCount != 1 || res.Procs[1].WaitTime != 216 {
		t.Errorf("wait = %d/%d, want 1/216", res.Procs[1].WaitCount, res.Procs[1].WaitTime)
	}
}

func TestNoWaitWhenMessageEarly(t *testing.T) {
	// Receiver that is already past the arrival instant records no wait.
	nw := lineNet(t, 2)
	res := run(t, nw, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, comm.Message{Parts: []comm.Part{{Data: payload(10)}}})
		case 1:
			p.AdvanceCombine(1000) // clock = 2000 > arrival 51
			p.Recv(0)
		}
	})
	if res.Procs[1].WaitCount != 0 {
		t.Errorf("wait count = %d, want 0", res.Procs[1].WaitCount)
	}
	// Receiver: 2000 + 20 + 10 = 2030.
	if got := res.Procs[1].Finish; got != 2030 {
		t.Errorf("receiver finish = %d, want 2030", got)
	}
}

func TestFIFOPerPair(t *testing.T) {
	nw := lineNet(t, 2)
	var got []int
	run(t, nw, func(p *Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < 5; i++ {
				p.Send(1, comm.Message{Tag: i, Parts: []comm.Part{{Data: payload(8)}}})
			}
		case 1:
			for i := 0; i < 5; i++ {
				got = append(got, p.Recv(0).Tag)
			}
		}
	})
	for i, tag := range got {
		if tag != i {
			t.Fatalf("messages reordered: %v", got)
		}
	}
}

func TestExchangeBothDirections(t *testing.T) {
	nw := lineNet(t, 2)
	run(t, nw, func(p *Proc) {
		other := 1 - p.Rank()
		m := exchange(p, other, comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Data: payload(4)}}})
		if len(m.Parts) != 1 || m.Parts[0].Origin != other {
			t.Errorf("rank %d got %v", p.Rank(), m)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	nw := lineNet(t, 4)
	res := run(t, nw, func(p *Proc) {
		// Skew the clocks, then meet at the barrier.
		p.AdvanceCombine(100 * (p.Rank() + 1))
		p.Barrier()
	})
	var first network.Time
	for i, ps := range res.Procs {
		if i == 0 {
			first = ps.Finish
			continue
		}
		if ps.Finish != first {
			t.Fatalf("barrier left clocks skewed: %v vs %v", ps.Finish, first)
		}
	}
	// Slowest pre-barrier clock is 800 (rank 3: 100*4 combine at 2ns/B).
	if first <= 800 {
		t.Fatalf("barrier exit %d not after slowest entry", first)
	}
}

// TestBarrierRankZeroArrivesLast pins the self-handoff case: when rank 0
// carries the largest clock it is dispatched last, so it is the
// processor whose park() releases the barrier — and after the release
// every waiter exits at the same instant, making rank 0 the heap minimum
// again. The scheduler must keep the token instead of handing it to
// itself (which deadlocked: a send on its own resume channel). The
// watchdog turns a regression into a fast failure instead of a hung
// test binary.
func TestBarrierRankZeroArrivesLast(t *testing.T) {
	nw := lineNet(t, 4)
	done := make(chan *Result, 1)
	go func() {
		done <- run(t, nw, func(p *Proc) {
			for round := 0; round < 2; round++ {
				// Rank 0 takes the largest key (the combine charge reaches
				// it through the self receive), so at its next scheduling
				// point — the second Send — the token visits every other
				// rank, they all enter the barrier, and rank 0 is the
				// processor that arrives last and triggers the release
				// from inside park().
				if p.Rank() == 0 {
					p.AdvanceCombine(10_000)
				} else {
					p.AdvanceCombine(100 * p.Rank())
				}
				self := comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Size: 8}}}
				p.Send(p.Rank(), self)
				p.Recv(p.Rank())
				p.Send(p.Rank(), self)
				p.Barrier()
			}
		})
	}()
	select {
	case res := <-done:
		var first network.Time
		for i, ps := range res.Procs {
			if i == 0 {
				first = ps.Finish
			} else if ps.Finish != first {
				t.Fatalf("barrier left clocks skewed: %v vs %v", ps.Finish, first)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked: barrier release handed the token to the parking processor")
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(p *Proc) {
		comm.MarkIter(p, 0)
		right := (p.Rank() + 1) % p.Size()
		left := (p.Rank() - 1 + p.Size()) % p.Size()
		p.Send(right, comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Data: payload(256)}}})
		p.Recv(left)
		comm.MarkIter(p, 1)
		p.Send(left, comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Data: payload(512)}}})
		p.Recv(right)
	}
	nw := lineNet(t, 8)
	a := run(t, nw, prog)
	b := run(t, nw, prog)
	if a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic elapsed: %d vs %d", a.Elapsed, b.Elapsed)
	}
	for i := range a.Procs {
		if a.Procs[i].Finish != b.Procs[i].Finish {
			t.Fatalf("rank %d finish differs: %d vs %d", i, a.Procs[i].Finish, b.Procs[i].Finish)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	nw := lineNet(t, 2)
	_, err := Run(nw, func(p *Proc) {
		p.Recv(1 - p.Rank()) // both receive first: classic deadlock
	}, Options{})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPartialBarrierIsDeadlock(t *testing.T) {
	nw := lineNet(t, 3)
	_, err := Run(nw, func(p *Proc) {
		if p.Rank() == 2 {
			p.Recv(0) // never sent
			return
		}
		p.Barrier()
	}, Options{})
	if err == nil {
		t.Fatal("stuck barrier not detected")
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	nw := lineNet(t, 2)
	_, err := Run(nw, func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 blocks forever waiting for rank 1.
		p.Recv(1)
	}, Options{})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not mention panic: %v", err)
	}
}

func TestContentionVisibleInElapsed(t *testing.T) {
	// Many senders hammering rank 0 must take longer than a single send,
	// because of receiver serialization and shared links near the root.
	nw := lineNet(t, 8)
	gather := func(p *Proc) {
		if p.Rank() == 0 {
			for src := 1; src < p.Size(); src++ {
				p.Recv(src)
			}
			return
		}
		p.Send(0, comm.Message{Parts: []comm.Part{{Data: payload(1024)}}})
	}
	res := run(t, nw, gather)
	single := run(t, lineNet(t, 8), func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(7)
		}
		if p.Rank() == 7 {
			p.Send(0, comm.Message{Parts: []comm.Part{{Data: payload(1024)}}})
		}
	})
	// The link into rank 0 serializes all seven wormholes, so the gather
	// must take at least seven single-hop wire times plus the final
	// receive's software cost (overhead 20 + copy 1024).
	floor := 7*flatCfg().WireTime(1, 1024) + 20 + 1024
	if res.Elapsed < floor {
		t.Fatalf("7-way gather (%d) below serialization floor (%d)", res.Elapsed, floor)
	}
	if res.Elapsed < 2*single.Elapsed {
		t.Fatalf("7-way gather (%d) not ≥2× a single far send (%d)", res.Elapsed, single.Elapsed)
	}
}

type countTracer struct {
	events int
	kinds  map[string]int
}

func (c *countTracer) Trace(e Event) {
	c.events++
	if c.kinds == nil {
		c.kinds = make(map[string]int)
	}
	c.kinds[e.Kind]++
}

func TestTracerReceivesEvents(t *testing.T) {
	nw := lineNet(t, 2)
	tr := &countTracer{}
	_, err := Run(nw, func(p *Proc) {
		p.Barrier()
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Parts: []comm.Part{{Data: payload(1)}}})
		} else {
			p.Recv(0)
		}
	}, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	// 2 barriers + 1 send + 1 recv + 1 wait: rank 1 posts its receive
	// before the message arrives, so the blocked span is traced too.
	if tr.events != 5 {
		t.Fatalf("tracer saw %d events, want 5", tr.events)
	}
	want := map[string]int{"barrier": 2, "send": 1, "recv": 1, "wait": 1}
	for k, n := range want {
		if tr.kinds[k] != n {
			t.Errorf("kind %q: %d events, want %d (all: %v)", k, tr.kinds[k], n, tr.kinds)
		}
	}
}

func TestSendToSelf(t *testing.T) {
	nw := lineNet(t, 2)
	res := run(t, nw, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(0, comm.Message{Tag: 9, Parts: []comm.Part{{Data: payload(32)}}})
			if m := p.Recv(0); m.Tag != 9 {
				t.Errorf("self recv tag = %d", m.Tag)
			}
		}
	})
	if res.Procs[0].Sends != 1 || res.Procs[0].Recvs != 1 {
		t.Fatalf("self send not counted: %+v", res.Procs[0])
	}
}

// waitForGoroutines fails the test unless the goroutine count settles back
// to at most base within a second (unwound goroutines need a moment to
// exit after their last channel operation).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
}

// TestGoroutinesReturnToBaseline runs every way a run can end — normally,
// deadlocked, with a panic, under either driver — back to
// back on the pooled engine: no processor goroutine may outlive its run
// (a replay never starts one), and a recycled engine must not carry
// anything of an abandoned run into the next one.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	ring := func(p *Proc) {
		p.Send((p.Rank()+1)%p.Size(), comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Size: 8}}})
		if m := p.Recv((p.Rank() + p.Size() - 1) % p.Size()); m.Parts[0].Origin != (p.Rank()+p.Size()-1)%p.Size() {
			panic(fmt.Sprintf("rank %d received a stale message from origin %d", p.Rank(), m.Parts[0].Origin))
		}
	}
	// script compiles rounds of the ring, each followed by what the rank
	// does after it, for the four processors of the test.
	script := func(rounds int, after func(b *comm.Builder, rank int)) *comm.Program {
		return mustCompile(t, comm.Script{Regs: 2, Rank: func(b *comm.Builder, rank int) {
			for i := 0; i < rounds; i++ {
				b.Send((rank+1)%4, 0)
				b.Recv((rank+3)%4, 1)
			}
			after(b, rank)
		}}, 4)
	}
	endings := []struct {
		name string
		fn   func(*Proc)   // run as goroutines, or
		prog *comm.Program // replayed
		want string        // substring of the error, "" for success
	}{
		{"normal", ring, nil, ""},
		{"deadlock", func(p *Proc) {
			p.Send((p.Rank()+1)%p.Size(), comm.Message{Parts: []comm.Part{{Origin: -1, Size: 8}}}) // left in the queue
			p.Recv((p.Rank() + 1) % p.Size())
			p.Recv((p.Rank() + 1) % p.Size())
		}, nil, "deadlock"},
		{"panic", func(p *Proc) {
			if p.Rank() == 2 {
				panic("boom")
			}
			p.Barrier()
		}, nil, "boom"},
		{"replayed", nil, script(1, func(*comm.Builder, int) {}), ""},
		{"replayed deadlock", nil, script(1, func(b *comm.Builder, rank int) {
			b.Send((rank+1)%4, 0) // left in the queue
			b.Recv((rank+1)%4, 1)
		}), "deadlock"},
	}
	for round := 0; round < 5; round++ {
		for _, e := range endings {
			var err error
			if e.prog != nil {
				// Once the earlier runs' goroutines are gone, a replay must
				// not show one of its own even for a moment.
				waitForGoroutines(t, base)
				_, err = Replay(lineNet(t, 4), e.prog, func(int) (int, int) { return 8, 1 }, Options{})
				if n := runtime.NumGoroutine(); n > base {
					t.Fatalf("round %d, %s: %d goroutines right after the replay, %d before it", round, e.name, n, base)
				}
			} else {
				_, err = Run(lineNet(t, 4), e.fn, Options{})
			}
			if e.want == "" && err != nil || e.want != "" && (err == nil || !strings.Contains(err.Error(), e.want)) {
				t.Fatalf("round %d, %s: got %v, want %q", round, e.name, err, e.want)
			}
			if _, err := Run(lineNet(t, 4), ring, Options{}); err != nil {
				t.Fatalf("round %d: run after a %s ending: %v", round, e.name, err)
			}
		}
	}
	waitForGoroutines(t, base)
}

func TestAbortDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		nw := lineNet(t, 4)
		_, err := Run(nw, func(p *Proc) {
			p.Recv((p.Rank() + 1) % p.Size()) // circular wait: deadlock
		}, Options{})
		if err == nil {
			t.Fatal("deadlock not detected")
		}
	}
	waitForGoroutines(t, before+4)
}

// exchange sends m to peer and receives peer's message: the pairwise step
// both sides take send-first, which the buffered Send makes safe.
func exchange(p *Proc, peer int, m comm.Message) comm.Message {
	p.Send(peer, m)
	return p.Recv(peer)
}
