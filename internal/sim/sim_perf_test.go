package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
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
// arena and the reused route scratch buffer), and a program of several
// registers per processor allocates what one of one does: the engine
// keeps its register file.
func TestSendRecvAllocationFree(t *testing.T) {
	nw := lineNet(t, 2)
	allocs := func(regs, rounds int) float64 {
		s := pingPong(rounds)
		s.Regs = regs
		prog := mustCompile(t, s, 2)
		// AllocsPerRun warms the engine pool and the route buffer first.
		return testing.AllocsPerRun(5, func() {
			if _, err := Replay(nw, prog, lengths(func(int) int { return 64 }), Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(1, 100), allocs(1, 10_000)
	// Fixed per-run setup (procs, stats) is allowed; anything proportional
	// to the extra 9900 rounds is a regression.
	if big > small {
		t.Errorf("allocations scale with operation count: %.0f for 100 rounds, %.0f for 10000", small, big)
	}
	if multi := allocs(4, 100); multi > small {
		t.Errorf("a replay of four registers per processor allocates %.0f, of one %.0f: the register file is made again", multi, small)
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

// TestRecycledStorageMatchesFresh replays cells whose shape changes from
// one to the next — machine size and topology, one register per
// processor or p, part lengths read or not — each on the engine and the
// network tables the cell before left behind, and requires exactly the
// result, hot links and node loads of the same cell on a new engine.
// That a released network starts as a new one is checked on its own in
// internal/network; the references here run on networks never released.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	x, y, z := topology.TorusDims(128)
	torus := topology.MustTorus3D(x, y, z)
	cells := []struct {
		topo       topology.Topology
		place      *topology.Placement
		cfg        network.Config
		rows, cols int
		alg        string
		sources    []int
		msgLen     int
	}{
		{topology.MustMesh2D(16, 16), topology.IdentityPlacement(256), network.ParagonNX(), 16, 16, "Br_Lin", stride(256, 4), 1024},
		{torus, topology.Snake3DPlacement(torus), network.T3DMPI(), 8, 16, "PersAlltoAll", stride(128, 3), 4096},
		{topology.MustHypercube(6), topology.IdentityPlacement(64), network.ParagonNX(), 8, 8, "A2A_Pairwise", core.AllRanksSources(64), 256},
		{topology.MustMesh2D(3, 4), topology.IdentityPlacement(12), network.ParagonMPI(), 3, 4, "Bcast_Circulant", []int{5}, 2048},
		{topology.MustMesh2D(3, 4), topology.IdentityPlacement(12), network.ParagonMPI(), 3, 4, "Ring_AllGather", stride(12, 2), 512},
		{topology.MustMesh2D(3, 4), topology.IdentityPlacement(12), network.ParagonMPI(), 3, 4, "A2A_JungSakho", core.AllRanksSources(12), 64},
	}
	type outcome struct {
		res  *Result
		hot  []network.LinkStats
		load []network.Time
	}
	replay := func(i int, fresh bool) outcome {
		c := cells[i]
		alg, err := core.ByName(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		spec := core.Spec{Rows: c.rows, Cols: c.cols, Sources: c.sources, Indexing: topology.SnakeRowMajor}
		prog, err := core.Compile(alg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if fresh {
			for _, ok := idle.Get(); ok; _, ok = idle.Get() {
			}
		}
		nw, err := network.New(c.topo, c.place, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		coll := core.CollectiveOf(alg)
		res, err := Replay(nw, prog, func(rank int) (int, int) { return core.InitialLen(coll, spec, rank, c.msgLen) }, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.alg, err)
		}
		res.Program = nil
		out := outcome{res, nw.HotLinks(0), nw.NodeLoad()}
		if !fresh {
			nw.Release()
		}
		return out
	}
	want := make([]outcome, len(cells))
	for i := range cells {
		want[i] = replay(i, true)
	}
	for round := range 2 {
		for i, c := range cells {
			if got := replay(i, false); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("round %d, %s on %s: a recycled engine and network give %+v, new ones %+v", round, c.alg, c.cfg.Name, *got.res, *want[i].res)
			}
		}
	}
}

// TestRecompiledSlabMatchesFresh compiles a small program into the
// operation slab a larger program for another p left behind
// (comm.Program.Release) and requires the ops and the replay of a fresh
// compile of it.
func TestRecompiledSlabMatchesFresh(t *testing.T) {
	small := comm.Script{Regs: 2, Rank: func(b *comm.Builder, rank int) {
		b.Send((rank+1)%3, 0)
		b.Merge((rank+2)%3, 0)
		b.Token((rank+2)%3, 5, 8)
		b.Drop((rank + 1) % 3)
	}}
	// Drain the slabs released programs left, so the first compile is fresh.
	for range runtime.GOMAXPROCS(0) {
		mustCompile(t, pingPong(1), 2)
	}
	fresh := mustCompile(t, small, 3)
	mustCompile(t, pingPong(500), 2).Release()
	recycled := mustCompile(t, small, 3)
	for rank := range 3 {
		if got, want := recycled.Ops(rank), fresh.Ops(rank); !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: ops %v in a recycled slab, %v in a fresh one", rank, got, want)
		}
	}
	want := run3(t, fresh)
	if got := run3(t, recycled); !reflect.DeepEqual(got, want) {
		t.Errorf("a program in a recycled slab replays to %+v, a fresh one to %+v", *got, *want)
	}
}

// run3 replays a program on a line of 3, every rank entering with 64
// bytes, and returns the result without its program.
func run3(t *testing.T, prog *comm.Program) *Result {
	t.Helper()
	res, err := Replay(lineNet(t, 3), prog, lengths(func(int) int { return 64 }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Program = nil
	return res
}

// TestReleasedProgramFailsLoudly: a released program has no operations of
// its own any more, so its replay fails and Ops panics, also once its slab
// holds another program's.
func TestReleasedProgramFailsLoudly(t *testing.T) {
	prog := mustCompile(t, pingPong(10), 2)
	prog.Release()
	other := mustCompile(t, pingPong(10), 2)
	if _, err := Replay(lineNet(t, 2), prog, none, Options{}); err == nil {
		t.Error("a released program replays")
	}
	if _, err := Makespan(lineNet(t, 2), prog, none); err == nil {
		t.Error("a released program replays for its makespan")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Ops of a released program returns")
			}
		}()
		t.Errorf("a released program reads ops %v", prog.Ops(0))
	}()
	if _, err := Replay(lineNet(t, 2), other, none, Options{}); err != nil {
		t.Errorf("the program compiled into the released slab: %v", err)
	}
}

// stride returns every k-th rank of p.
func stride(p, k int) []int {
	var out []int
	for r := 0; r < p; r += k {
		out = append(out, r)
	}
	return out
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
