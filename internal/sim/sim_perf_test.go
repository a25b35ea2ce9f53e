package sim

import (
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/topology"
)

// pingPong is `rounds` request/reply exchanges between two processors —
// the steady-state Send/Recv hot path with nothing around it.
func pingPong(rounds int) comm.Script {
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		for i := 0; i < rounds; i++ {
			if rank == 0 {
				b.Send(1, 0)
				b.Recv(1, 0)
			} else {
				b.Recv(0, 0)
				b.Send(0, 0)
			}
		}
	}}
}

// TestSendRecvAllocationFree asserts the 0-allocs/op property directly:
// growing the round count 100x must not grow the allocation count of a
// replay with it (all per-message state lives in the pooled engine's
// arena and the reused route scratch buffer).
func TestSendRecvAllocationFree(t *testing.T) {
	nw := lineNet(t, 2)
	allocs := func(rounds int) uint64 {
		prog := mustCompile(t, pingPong(rounds), 2)
		replay := func() {
			if _, err := Replay(nw, prog, lengths(func(int) int { return 64 }), Options{}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the engine pool and the route buffer first.
		replay()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	small := allocs(100)
	big := allocs(10_000)
	// Fixed per-run setup (procs, stats) is allowed; anything proportional
	// to the extra 9900 rounds is a regression. The slack absorbs
	// runtime-internal allocations.
	if big > small+100 {
		t.Errorf("allocations scale with operation count: %d for 100 rounds, %d for 10000", small, big)
	}
}

// TestQueueArraysRecycled exercises the run-level pooling: back-to-back
// replays must stay correct on a recycled engine — also right after a run
// that left messages nobody received in the queues, and across machine
// sizes (the p×p table is re-indexed).
func TestQueueArraysRecycled(t *testing.T) {
	nw := lineNet(t, 4)
	ring := script(func(b *comm.Builder, rank int) {
		b.Send((rank+1)%4, 0)
		b.Recv((rank+3)%4, 1)
	})
	for i := 0; i < 5; i++ {
		run(t, lineNet(t, 3+i), script(func(b *comm.Builder, rank int) {
			b.Token(0, -7, 16) // never received
		}), none)
		// Rank r enters with 32·(r+1) bytes, so what it receives says who
		// sent it; a message left over from the run before is 16 bytes.
		res := run(t, nw, ring, lengths(func(rank int) int { return 32 * (rank + 1) }))
		for rank, ps := range res.Procs {
			if prev := (rank + 3) % 4; ps.Recvs != 1 || ps.RecvBytes != int64(32*(prev+1)) {
				t.Errorf("run %d: rank %d received %d messages of %d bytes, want one of rank %d's %d", i, rank, ps.Recvs, ps.RecvBytes, prev, 32*(prev+1))
			}
		}
		if res.Net.Transfers != 4 {
			t.Fatalf("run %d: %d transfers, want 4", i, res.Net.Transfers)
		}
	}
}

// BenchmarkReplay replays one cell — a recursive-doubling exchange on the
// 16×16 mesh, 2 048 sends of 64 bytes.
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(nw, prog, func(int) (int, int) { return 64, 1 }, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
