package core

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

// runLib executes fn on the live engine with p processors and returns
// the per-rank results.
func runLib(t *testing.T, p int, fn func(c comm.Comm) comm.Message) []comm.Message {
	t.Helper()
	out := make([]comm.Message, p)
	if _, err := liveRun(p, live.Options{}, func(pr *live.Proc) { out[pr.Rank()] = fn(pr) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayScript replays s on a 1×p Paragon NX line, rank r entering with
// parts(r) parts of size bytes each.
func replayScript(t *testing.T, s comm.Script, p, size int, parts func(rank int) int) *sim.Result {
	t.Helper()
	nw, err := network.New(topology.MustMesh2D(1, p), topology.IdentityPlacement(p), network.ParagonNX())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Replay(nw, prog, func(rank int) (int, int) { return size, parts(rank) }, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// only is the part count of a replay in which rank src alone enters with
// a part.
func only(src int) func(rank int) int {
	return func(rank int) int {
		if rank == src {
			return 1
		}
		return 0
	}
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
			l := runLib(t, p, func(c comm.Comm) comm.Message {
				var m comm.Message
				if c.Rank() == root {
					m = mkMsg(root, 64)
				}
				return bcastScript(p, root).Run(c, m)
			})
			label := fmt.Sprintf("Bcast p=%d root=%d", p, root)
			wantOrigins(t, label+" (live)", l, []int{root})
		}
	}
}

func TestGatherCollectsInSourceOrder(t *testing.T) {
	p := 10
	sources := []int{1, 4, 7, 9}
	l := runLib(t, p, func(c comm.Comm) comm.Message {
		var m comm.Message
		for _, src := range sources {
			if src == c.Rank() {
				m = mkMsg(src, 32)
			}
		}
		return gatherScript(0, sources).Run(c, m)
	})
	for _, out := range [][]comm.Message{l} {
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
	l := runLib(t, 4, func(c comm.Comm) comm.Message {
		var m comm.Message
		if c.Rank() == 0 || c.Rank() == 2 {
			m = mkMsg(c.Rank(), 16)
		}
		return gatherScript(0, sources).Run(c, m)
	})
	if got := l[0].Origins(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("root origins = %v", got)
	}
}

func TestAlltoallPersonalizedPow2AndNot(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 3, 5, 10, 12} {
		sources := []int{0, p / 2}
		if p/2 == 0 {
			sources = []int{0}
		}
		l := runLib(t, p, func(c comm.Comm) comm.Message {
			var m comm.Message
			for _, src := range sources {
				if src == c.Rank() {
					m = mkMsg(src, 48)
				}
			}
			return alltoallPersonalizedScript(p, sources).Run(c, m)
		})
		label := fmt.Sprintf("Alltoall p=%d", p)
		wantOrigins(t, label+" (live)", l, sources)
	}
}

func TestAlltoallAllSources(t *testing.T) {
	p := 6
	sources := []int{0, 1, 2, 3, 4, 5}
	l := runLib(t, p, func(c comm.Comm) comm.Message {
		return alltoallPersonalizedScript(p, sources).Run(c, mkMsg(c.Rank(), 8))
	})
	wantOrigins(t, "Alltoall full (live)", l, sources)
}

func TestAllgatherRing(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		l := runLib(t, p, func(c comm.Comm) comm.Message {
			return allgatherRingScript(p).Run(c, mkMsg(c.Rank(), 24))
		})
		all := make([]int, p)
		for i := range all {
			all[i] = i
		}
		label := fmt.Sprintf("AllgatherRing p=%d", p)
		wantOrigins(t, label+" (live)", l, all)
		// Rank order of the concatenation is part of the contract.
		for _, out := range [][]comm.Message{l} {
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
	l := runLib(t, p, func(c comm.Comm) comm.Message {
		var m comm.Message
		if c.Rank() == 2 || c.Rank() == 6 {
			m = mkMsg(c.Rank(), 40)
		}
		return allgatherRingScript(p).Run(c, m)
	})
	wantOrigins(t, "AllgatherRing sparse (live)", l, sources)
}

func TestBcastBinomialDepth(t *testing.T) {
	// The root must send at most ⌈log2 p⌉ messages and the makespan must
	// reflect a logarithmic tree, not a linear chain.
	p := 16
	res := replayScript(t, bcastScript(p, 0), p, 128, only(0))

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
		l := runLib(t, p, func(c comm.Comm) comm.Message {
			var m comm.Message
			for _, src := range sources {
				if src == c.Rank() {
					m = mkMsg(src, 64)
				}
			}
			return allgatherRecDoublingScript(p, sources).Run(c, m)
		})
		label := fmt.Sprintf("RecDoubling p=%d", p)
		wantOrigins(t, label+" (live)", l, sources)
	}
}

func TestAllgatherRecDoublingAllSources(t *testing.T) {
	p := 8
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	l := runLib(t, p, func(c comm.Comm) comm.Message {
		return allgatherRecDoublingScript(p, all).Run(c, mkMsg(c.Rank(), 16))
	})
	wantOrigins(t, "RecDoubling full (live)", l, all)
}

func TestAllgatherRecDoublingNonPow2FallsBack(t *testing.T) {
	p := 6
	sources := []int{1, 4}
	l := runLib(t, p, func(c comm.Comm) comm.Message {
		var m comm.Message
		for _, src := range sources {
			if src == c.Rank() {
				m = mkMsg(src, 32)
			}
		}
		return allgatherRecDoublingScript(p, sources).Run(c, m)
	})
	wantOrigins(t, "RecDoubling non-pow2 (live)", l, sources)
}

func TestAllgatherRecDoublingSkipsEmptyExchanges(t *testing.T) {
	// With a single source on a 16-processor machine, round k only
	// involves processors whose group already holds the message: total
	// sends are 1+2+4+8 = 15, not 16·4.
	p := 16
	res := replayScript(t, allgatherRecDoublingScript(p, []int{5}), p, 64, only(5))
	total := 0
	for _, ps := range res.Procs {
		total += ps.Sends
	}
	if total != 15 {
		t.Fatalf("single-source rec-doubling sent %d messages, want 15", total)
	}
}
