package sim

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
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

func lineNet(t testing.TB, n int) *network.Network {
	t.Helper()
	topo := topology.MustMesh2D(1, n)
	nw, err := network.New(topo, topology.IdentityPlacement(n), flatCfg())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// mustCompile compiles s for a machine of p.
func mustCompile(t testing.TB, s comm.Script, p int) *comm.Program {
	t.Helper()
	prog, err := s.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// script is a two-register script whose every rank runs body.
func script(body func(b *comm.Builder, rank int)) comm.Script {
	return comm.Script{Regs: 2, Rank: body}
}

// lengths is the initial of a replay in which rank r enters with one part
// of lens(r) bytes, or with nothing when that is 0.
func lengths(lens func(rank int) int) func(rank int) (int, int) {
	return func(rank int) (int, int) {
		n := lens(rank)
		return n, min(n, 1)
	}
}

// none is the initial of a replay in which every rank enters empty.
func none(int) (int, int) { return 0, 0 }

// replay compiles s for the ranks of nw and replays it.
func replay(t testing.TB, nw *network.Network, s comm.Script, initial func(rank int) (int, int), opts Options) (*Result, error) {
	t.Helper()
	return Replay(nw, mustCompile(t, s, nw.Placement().Size()), initial, opts)
}

// run is replay for a script that must finish.
func run(t testing.TB, nw *network.Network, s comm.Script, initial func(rank int) (int, int)) *Result {
	t.Helper()
	res, err := replay(t, nw, s, initial, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type eventLog []obs.Event

func (l *eventLog) Trace(e obs.Event) { *l = append(*l, e) }

// received returns the tags of the messages rank received, in order.
func (l eventLog) received(rank int) []int {
	var tags []int
	for _, e := range l {
		if e.Kind == obs.KindRecv && e.Rank == rank {
			tags = append(tags, e.Tag)
		}
	}
	return tags
}

func TestPingTiming(t *testing.T) {
	nw := lineNet(t, 2)
	res := run(t, nw, script(func(b *comm.Builder, rank int) {
		switch rank {
		case 0:
			b.Send(1, 0)
		case 1:
			b.Recv(0, 0)
		}
	}), lengths(func(rank int) int { return 100 * (1 - rank) }))
	if got := res.Procs[1].RecvBytes; got != 100 {
		t.Errorf("recv len = %d", got)
	}
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
	res := run(t, nw, script(func(b *comm.Builder, rank int) {
		switch rank {
		case 0:
			b.Send(1, 0)
		case 1:
			b.Combine(0) // clock = 2000 > arrival 51
			b.Recv(0, 1)
		}
	}), lengths(func(rank int) int { return []int{10, 1000}[rank] }))
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
	var log eventLog
	if _, err := replay(t, nw, script(func(b *comm.Builder, rank int) {
		for i := 0; i < 5; i++ {
			switch rank {
			case 0:
				b.Token(1, i, 8)
			case 1:
				b.Drop(0)
			}
		}
	}), none, Options{Tracer: &log}); err != nil {
		t.Fatal(err)
	}
	got := log.received(1)
	for i, tag := range got {
		if tag != i {
			t.Fatalf("messages reordered: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("received %d messages, want 5", len(got))
	}
}

func TestExchangeBothDirections(t *testing.T) {
	// Each rank sends first and then receives, which the buffered send
	// makes safe; each gets the other's bundle, told apart by its length.
	nw := lineNet(t, 2)
	res := run(t, nw, script(func(b *comm.Builder, rank int) {
		b.Send(1-rank, 0)
		b.Recv(1-rank, 1)
	}), lengths(func(rank int) int { return 4 * (rank + 1) }))
	for rank, ps := range res.Procs {
		if want := int64(4 * (2 - rank)); ps.RecvBytes != want || ps.Recvs != 1 {
			t.Errorf("rank %d received %d messages of %d bytes, want one of %d", rank, ps.Recvs, ps.RecvBytes, want)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	nw := lineNet(t, 4)
	// Skew the clocks, then meet at the barrier.
	res := run(t, nw, script(func(b *comm.Builder, rank int) {
		b.Combine(0)
		b.Barrier()
	}), lengths(func(rank int) int { return 100 * (rank + 1) }))
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

// TestBarrierRankZeroArrivesLast pins the release by the lowest rank:
// when rank 0 carries the largest clock it is stepped last, so it is the
// processor that arrives last and releases the barrier — after which
// every waiter exits at the same instant and rank 0 is the heap minimum
// again, twice over.
func TestBarrierRankZeroArrivesLast(t *testing.T) {
	nw := lineNet(t, 4)
	res := run(t, nw, script(func(b *comm.Builder, rank int) {
		for round := 0; round < 2; round++ {
			// Rank 0 takes the largest key (the combine charge reaches it
			// through the self receive), so at its next scheduling point —
			// the second send — every other rank runs into the barrier
			// first.
			b.Combine(0)
			b.Token(rank, 0, 8)
			b.Drop(rank)
			b.Token(rank, 0, 8)
			b.Barrier()
		}
	}), lengths(func(rank int) int { return []int{5000, 50, 100, 150}[rank] }))
	var first network.Time
	for i, ps := range res.Procs {
		if i == 0 {
			first = ps.Finish
		} else if ps.Finish != first {
			t.Fatalf("barrier left clocks skewed: %v vs %v", ps.Finish, first)
		}
	}
}

func TestDeterminism(t *testing.T) {
	ring := script(func(b *comm.Builder, rank int) {
		right, left := (rank+1)%8, (rank+7)%8
		b.Iter(0)
		b.Token(right, 0, 256)
		b.Drop(left)
		b.Iter(1)
		b.Token(left, 0, 512)
		b.Drop(right)
	})
	nw := lineNet(t, 8)
	a := run(t, nw, ring, none)
	b := run(t, nw, ring, none)
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
	_, err := replay(t, nw, script(func(b *comm.Builder, rank int) {
		b.Recv(1-rank, 0) // both receive first: classic deadlock
	}), none, Options{})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPartialBarrierIsDeadlock(t *testing.T) {
	nw := lineNet(t, 3)
	_, err := replay(t, nw, script(func(b *comm.Builder, rank int) {
		if rank == 2 {
			b.Recv(0, 0) // never sent
			return
		}
		b.Barrier()
	}), none, Options{})
	if err == nil {
		t.Fatal("stuck barrier not detected")
	}
}

func TestContentionVisibleInElapsed(t *testing.T) {
	// Many senders hammering rank 0 must take longer than a single send,
	// because of receiver serialization and shared links near the root.
	gather := script(func(b *comm.Builder, rank int) {
		if rank == 0 {
			for src := 1; src < 8; src++ {
				b.Drop(src)
			}
			return
		}
		b.Token(0, 0, 1024)
	})
	res := run(t, lineNet(t, 8), gather, none)
	single := run(t, lineNet(t, 8), script(func(b *comm.Builder, rank int) {
		switch rank {
		case 0:
			b.Drop(7)
		case 7:
			b.Token(0, 0, 1024)
		}
	}), none)
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
	_, err := replay(t, nw, script(func(b *comm.Builder, rank int) {
		b.Barrier()
		if rank == 0 {
			b.Send(1, 0)
		} else {
			b.Recv(0, 0)
		}
	}), lengths(func(rank int) int { return 1 - rank }), Options{Tracer: tr})
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
	var log eventLog
	res, err := replay(t, nw, script(func(b *comm.Builder, rank int) {
		if rank == 0 {
			b.Token(0, 9, 32)
			b.Drop(0)
		}
	}), none, Options{Tracer: &log})
	if err != nil {
		t.Fatal(err)
	}
	if tags := log.received(0); len(tags) != 1 || tags[0] != 9 {
		t.Errorf("self recv tags = %v, want [9]", tags)
	}
	if res.Procs[0].Sends != 1 || res.Procs[0].Recvs != 1 {
		t.Fatalf("self send not counted: %+v", res.Procs[0])
	}
}
