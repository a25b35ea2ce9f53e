package sim

import (
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/topology"
)

// pingPong runs `rounds` request/reply exchanges between two processors on
// a 1×2 mesh — the steady-state Send/Recv hot path with no algorithm code
// around it.
func pingPong(nw *network.Network, rounds int) error {
	_, err := Run(nw, func(p *Proc) {
		msg := comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Size: 64}}}
		for i := 0; i < rounds; i++ {
			if p.Rank() == 0 {
				p.Send(1, msg)
				p.Recv(1)
			} else {
				p.Recv(0)
				p.Send(0, msg)
			}
		}
	}, Options{})
	return err
}

// BenchmarkSendRecvSteadyState measures the per-operation cost of the
// scheduler hot path. The per-run setup (goroutines, result) is amortized
// over b.N rounds; steady-state Send/Recv must show 0 allocs/op under
// -benchmem.
func BenchmarkSendRecvSteadyState(b *testing.B) {
	topo := topology.MustMesh2D(1, 2)
	nw, err := network.New(topo, topology.IdentityPlacement(2), flatCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := pingPong(nw, b.N); err != nil {
		b.Fatal(err)
	}
}

// TestSendRecvAllocationFree asserts the 0-allocs/op property directly:
// growing the round count 100x must not grow the allocation count with it
// (all per-message state lives in the pooled engine's arena and the
// reused route scratch buffer).
func TestSendRecvAllocationFree(t *testing.T) {
	topo := topology.MustMesh2D(1, 2)
	nw, err := network.New(topo, topology.IdentityPlacement(2), flatCfg())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rounds int) uint64 {
		// Warm the engine pool and the route buffer first.
		if err := pingPong(nw, rounds); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := pingPong(nw, rounds); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	small := allocs(100)
	big := allocs(10_000)
	// Fixed per-run setup (procs, goroutines, stats) is allowed; anything
	// proportional to the extra 9900 rounds is a regression. The slack
	// absorbs runtime-internal allocations.
	if big > small+100 {
		t.Errorf("allocations scale with operation count: %d for 100 rounds, %d for 10000", small, big)
	}
}

// TestRecvReleasesQueuedPayloads is the regression test for the queue
// retention bug: with the old `q = q[1:]` idiom every delivered payload
// stayed reachable through the queue's backing array until the end of the
// run. The arena must zero nodes on pop.
func TestRecvReleasesQueuedPayloads(t *testing.T) {
	nw := lineNet(t, 2)
	checked := false
	run(t, nw, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				p.Send(1, comm.Message{Parts: []comm.Part{{Origin: 0, Data: payload(1 << 10)}}})
			}
			return
		}
		for i := 0; i < 3; i++ {
			p.Recv(0)
		}
		if q := p.eng.queues[0*2+1]; q != (queue{}) || p.eng.queued != 0 {
			t.Errorf("queue not drained: %+v, %d messages queued", q, p.eng.queued)
		}
		if len(p.eng.nodes) < 2 {
			t.Errorf("arena holds %d nodes, want the sentinel and the used ones", len(p.eng.nodes))
		}
		for i, nd := range p.eng.nodes {
			if nd.pd.parts != nil {
				t.Errorf("popped node %d still references its payload", i)
			}
		}
		checked = true
	})
	if !checked {
		t.Fatal("receiver never inspected the queue")
	}
}

// TestQueueArraysRecycled exercises the run-level pooling: back-to-back
// runs must stay correct on a recycled engine — also right after a run
// that left messages nobody received in the queues, and across machine
// sizes (the p×p table is re-indexed).
func TestQueueArraysRecycled(t *testing.T) {
	nw := lineNet(t, 4)
	for i := 0; i < 5; i++ {
		run(t, lineNet(t, 3+i), func(p *Proc) {
			p.Send(0, comm.Message{Parts: []comm.Part{{Origin: -7, Data: payload(16)}}}) // never received
		})
		res := run(t, nw, func(p *Proc) {
			next := (p.Rank() + 1) % p.Size()
			prev := (p.Rank() + p.Size() - 1) % p.Size()
			p.Send(next, comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Size: 32}}})
			m := p.Recv(prev)
			if m.Parts[0].Origin != prev {
				t.Errorf("run %d: rank %d received origin %d, want %d", i, p.Rank(), m.Parts[0].Origin, prev)
			}
		})
		if res.Net.Transfers != 4 {
			t.Fatalf("run %d: %d transfers, want 4", i, res.Net.Transfers)
		}
	}
}

// BenchmarkReplay runs one cell — a recursive-doubling exchange on the
// 16×16 mesh, 2 048 sends of 64 bytes — under both drivers: every rank a
// goroutine executing its part of the program, and the program replayed.
// The model work is the same; the difference is what starting a rank and
// handing the token on cost.
func BenchmarkReplay(b *testing.B) {
	const p = 256
	prog := mustCompile(b, comm.Script{Regs: 1, Rank: func(sb *comm.Builder, rank int) {
		sb.Barrier()
		for i, d := 0, 1; d < p; i, d = i+1, d<<1 {
			sb.Iter(i)
			sb.Send(rank^d, 0)
			sb.Recv(rank^d, 0)
		}
	}}, p)
	nw, err := network.New(topology.MustMesh2D(16, 16), topology.IdentityPlacement(p), flatCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(nw, func(pr *Proc) {
				prog.Run(pr, comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Size: 64}}})
			}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Replay(nw, prog, func(int) (int, int) { return 64, 1 }, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
