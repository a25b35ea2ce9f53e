package collective

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// liveRun opens a live machine of p processors, runs fn on it once and
// closes it.
func liveRun(p int, opts live.Options, fn func(*live.Proc)) (*live.Result, error) {
	m, err := live.NewMachine(p)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

// runBoth executes fn on both engines with p processors and returns the
// per-rank results from each, so tests verify engine-independent
// semantics.
func runBoth(t *testing.T, p int, fn func(c comm.Comm) comm.Message) (simOut, liveOut []comm.Message) {
	t.Helper()
	simOut = make([]comm.Message, p)
	liveOut = make([]comm.Message, p)
	topo := topology.MustMesh2D(1, p)
	nw, err := network.New(topo, topology.IdentityPlacement(p), network.ParagonNX())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(nw, func(pr *sim.Proc) { simOut[pr.Rank()] = fn(pr) }, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := liveRun(p, live.Options{}, func(pr *live.Proc) { liveOut[pr.Rank()] = fn(pr) }); err != nil {
		t.Fatal(err)
	}
	return simOut, liveOut
}

// mkMsg builds a one-part bundle whose payload encodes the origin.
func mkMsg(origin, size int) comm.Message {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(origin)
	}
	return comm.Message{Parts: []comm.Part{{Origin: origin, Data: data}}}
}

// wantOrigins asserts that every rank's bundle carries exactly the given
// origins (in any order) with intact payloads.
func wantOrigins(t *testing.T, label string, out []comm.Message, origins []int) {
	t.Helper()
	for rank, m := range out {
		got := m.Origins()
		want := append([]int(nil), origins...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rank %d origins = %v, want %v", label, rank, got, want)
		}
		for _, part := range m.Parts {
			for _, b := range part.Data {
				if b != byte(part.Origin) {
					t.Fatalf("%s: rank %d payload of origin %d corrupted", label, rank, part.Origin)
				}
			}
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17} {
		roots := []int{0, p / 2, p - 1}
		for _, root := range roots {
			s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
				var m comm.Message
				if c.Rank() == root {
					m = mkMsg(root, 64)
				}
				return BcastScript(p, root).Run(c, m)
			})
			label := fmt.Sprintf("Bcast p=%d root=%d", p, root)
			wantOrigins(t, label+" (sim)", s, []int{root})
			wantOrigins(t, label+" (live)", l, []int{root})
		}
	}
}

func TestGatherCollectsInSourceOrder(t *testing.T) {
	p := 10
	sources := []int{1, 4, 7, 9}
	s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
		var m comm.Message
		for _, src := range sources {
			if src == c.Rank() {
				m = mkMsg(src, 32)
			}
		}
		return GatherScript(0, sources).Run(c, m)
	})
	for _, out := range [][]comm.Message{s, l} {
		root := out[0]
		if len(root.Parts) != len(sources) {
			t.Fatalf("root has %d parts", len(root.Parts))
		}
		for i, part := range root.Parts {
			if part.Origin != sources[i] {
				t.Fatalf("root part %d origin %d, want %d", i, part.Origin, sources[i])
			}
		}
		for rank := 1; rank < p; rank++ {
			if len(out[rank].Parts) != 0 {
				t.Fatalf("non-root rank %d kept parts", rank)
			}
		}
	}
}

func TestGatherRootAsSource(t *testing.T) {
	sources := []int{0, 2}
	s, _ := runBoth(t, 4, func(c comm.Comm) comm.Message {
		var m comm.Message
		if c.Rank() == 0 || c.Rank() == 2 {
			m = mkMsg(c.Rank(), 16)
		}
		return GatherScript(0, sources).Run(c, m)
	})
	if got := s[0].Origins(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("root origins = %v", got)
	}
}

func TestAlltoallPersonalizedPow2AndNot(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 3, 5, 10, 12} {
		sources := []int{0, p / 2}
		if p/2 == 0 {
			sources = []int{0}
		}
		s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
			var m comm.Message
			for _, src := range sources {
				if src == c.Rank() {
					m = mkMsg(src, 48)
				}
			}
			return AlltoallPersonalizedScript(p, sources).Run(c, m)
		})
		label := fmt.Sprintf("Alltoall p=%d", p)
		wantOrigins(t, label+" (sim)", s, sources)
		wantOrigins(t, label+" (live)", l, sources)
	}
}

func TestAlltoallAllSources(t *testing.T) {
	p := 6
	sources := []int{0, 1, 2, 3, 4, 5}
	s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
		return AlltoallPersonalizedScript(p, sources).Run(c, mkMsg(c.Rank(), 8))
	})
	wantOrigins(t, "Alltoall full (sim)", s, sources)
	wantOrigins(t, "Alltoall full (live)", l, sources)
}

func TestAllgatherRing(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
			return AllgatherRingScript(p).Run(c, mkMsg(c.Rank(), 24))
		})
		all := make([]int, p)
		for i := range all {
			all[i] = i
		}
		label := fmt.Sprintf("AllgatherRing p=%d", p)
		wantOrigins(t, label+" (sim)", s, all)
		wantOrigins(t, label+" (live)", l, all)
		// Rank order of the concatenation is part of the contract.
		for _, out := range [][]comm.Message{s, l} {
			for rank := 0; rank < p; rank++ {
				for i, part := range out[rank].Parts {
					if part.Origin != i {
						t.Fatalf("%s: rank %d parts out of order: %v", label, rank, out[rank].Origins())
					}
				}
			}
		}
	}
}

func TestAllgatherRingSparseSources(t *testing.T) {
	// Processors without data contribute empty bundles; everyone still
	// ends with exactly the source parts.
	p := 9
	sources := []int{2, 6}
	s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
		var m comm.Message
		if c.Rank() == 2 || c.Rank() == 6 {
			m = mkMsg(c.Rank(), 40)
		}
		return AllgatherRingScript(p).Run(c, m)
	})
	wantOrigins(t, "AllgatherRing sparse (sim)", s, sources)
	wantOrigins(t, "AllgatherRing sparse (live)", l, sources)
}

func TestBcastBinomialDepth(t *testing.T) {
	// The root must send at most ⌈log2 p⌉ messages and the makespan must
	// reflect a logarithmic tree, not a linear chain.
	p := 16
	topo := topology.MustMesh2D(1, p)
	nw, err := network.New(topo, topology.IdentityPlacement(p), network.ParagonNX())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(nw, func(pr *sim.Proc) {
		var m comm.Message
		if pr.Rank() == 0 {
			m = mkMsg(0, 128)
		}
		BcastScript(p, 0).Run(pr, m)
	}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].Sends != 4 {
		t.Fatalf("root sent %d messages, want 4 for p=16", res.Procs[0].Sends)
	}
	for rank := 1; rank < p; rank++ {
		if res.Procs[rank].Recvs != 1 {
			t.Fatalf("rank %d received %d messages", rank, res.Procs[rank].Recvs)
		}
	}
}

func TestAllgatherRecDoublingPow2(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		sources := []int{0, p - 1}
		s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
			var m comm.Message
			for _, src := range sources {
				if src == c.Rank() {
					m = mkMsg(src, 64)
				}
			}
			return AllgatherRecDoublingScript(p, sources).Run(c, m)
		})
		label := fmt.Sprintf("RecDoubling p=%d", p)
		wantOrigins(t, label+" (sim)", s, sources)
		wantOrigins(t, label+" (live)", l, sources)
	}
}

func TestAllgatherRecDoublingAllSources(t *testing.T) {
	p := 8
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
		return AllgatherRecDoublingScript(p, all).Run(c, mkMsg(c.Rank(), 16))
	})
	wantOrigins(t, "RecDoubling full (sim)", s, all)
	wantOrigins(t, "RecDoubling full (live)", l, all)
}

func TestAllgatherRecDoublingNonPow2FallsBack(t *testing.T) {
	p := 6
	sources := []int{1, 4}
	s, l := runBoth(t, p, func(c comm.Comm) comm.Message {
		var m comm.Message
		for _, src := range sources {
			if src == c.Rank() {
				m = mkMsg(src, 32)
			}
		}
		return AllgatherRecDoublingScript(p, sources).Run(c, m)
	})
	wantOrigins(t, "RecDoubling non-pow2 (sim)", s, sources)
	wantOrigins(t, "RecDoubling non-pow2 (live)", l, sources)
}

func TestAllgatherRecDoublingSkipsEmptyExchanges(t *testing.T) {
	// With a single source on a 16-processor machine, round k only
	// involves processors whose group already holds the message: total
	// sends are 1+2+4+8 = 15, not 16·4.
	p := 16
	topo := topology.MustMesh2D(1, p)
	nw, err := network.New(topo, topology.IdentityPlacement(p), network.ParagonNX())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(nw, func(pr *sim.Proc) {
		var m comm.Message
		if pr.Rank() == 5 {
			m = mkMsg(5, 64)
		}
		AllgatherRecDoublingScript(p, []int{5}).Run(pr, m)
	}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ps := range res.Procs {
		total += ps.Sends
	}
	if total != 15 {
		t.Fatalf("single-source rec-doubling sent %d messages, want 15", total)
	}
}
