package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// replayColl replays the program a collective algorithm compiles for
// spec on the Paragon NX model, every rank entering with its bundle of
// the collective at size bytes per part.
func replayColl(coll Collective, alg Algorithm, spec Spec, size int) (*sim.Result, error) {
	nw, err := network.New(topology.MustMesh2D(spec.Rows, spec.Cols), topology.IdentityPlacement(spec.P()), network.ParagonNX())
	if err != nil {
		return nil, err
	}
	prog, err := Compile(alg, spec)
	if err != nil {
		return nil, err
	}
	return sim.Replay(nw, prog, func(rank int) (int, int) { return InitialLen(coll, spec, rank, size) }, sim.Options{})
}

// runLiveColl executes a collective algorithm on the live goroutine
// engine, every rank entering with its Payload of size bytes, and returns
// the per-rank result bundles.
func runLiveColl(t *testing.T, coll Collective, alg Algorithm, spec Spec, size int) []comm.Message {
	t.Helper()
	out, _, err := liveColl(coll, alg, spec, size)
	if err != nil {
		t.Fatalf("%s/%s on %d×%d s=%d (live): %v", coll, alg.Name(), spec.Rows, spec.Cols, spec.S(), err)
	}
	return out
}

func liveColl(coll Collective, alg Algorithm, spec Spec, size int) ([]comm.Message, *live.Result, error) {
	out := make([]comm.Message, spec.P())
	res, err := liveRun(spec.P(), live.Options{}, func(pr *live.Proc) {
		mine := InitialFor(coll, spec, pr.Rank(), func(r int) []byte { return coll.Payload(spec.P(), r, size) })
		out[pr.Rank()] = alg.Run(pr, spec, mine)
	})
	return out, res, err
}

// enginesAgree runs alg on spec on the live engine and replays its
// program, and says where the two differ: in what a rank sent or
// received, counted in messages and bytes sent.
func enginesAgree(coll Collective, alg Algorithm, spec Spec, size int) error {
	_, ran, err := liveColl(coll, alg, spec, size)
	if err != nil {
		return err
	}
	replayed, err := replayColl(coll, alg, spec, size)
	if err != nil {
		return err
	}
	for rank, got := range replayed.Procs {
		if want := ran.Procs[rank]; got.Sends != want.Sends || got.Recvs != want.Recvs || got.SendBytes != want.SendBytes {
			return fmt.Errorf("rank %d: the replay counts %d sends, %d receives, %d bytes sent; live %d, %d, %d",
				rank, got.Sends, got.Recvs, got.SendBytes, want.Sends, want.Recvs, want.SendBytes)
		}
	}
	return nil
}

// collSpecs enumerates the spec variants a collective is tested under on
// an r×c mesh: several source subsets for the rooted/combining
// collectives, the all-ranks spec for the sourceless ones.
func collSpecs(coll Collective, r, c int) []Spec {
	p := r * c
	mk := func(sources []int) Spec {
		return Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
	}
	switch coll {
	case Reduce, AllReduce:
		specs := []Spec{mk([]int{0}), mk([]int{p / 2}), mk(AllRanksSources(p))}
		if p >= 4 {
			specs = append(specs, mk([]int{1, p / 2, p - 1}))
		}
		return specs
	case Scatter:
		return []Spec{mk([]int{0}), mk([]int{p - 1})}
	default:
		return []Spec{mk(AllRanksSources(p))}
	}
}

// TestCollectivesLive is the per-collective correctness matrix, on the
// live goroutine engine with real bytes: every non-broadcast registry
// entry × several machine shapes (power-of-two and not, to exercise the
// fallbacks) × source variants, verified byte-exact.
func TestCollectivesLive(t *testing.T) {
	meshes := [][2]int{{1, 8}, {4, 4}, {3, 5}, {4, 7}}
	for _, coll := range Collectives() {
		if coll == Broadcast {
			continue
		}
		for _, alg := range RegistryFor(coll) {
			for _, m := range meshes {
				for _, spec := range collSpecs(coll, m[0], m[1]) {
					label := fmt.Sprintf("%s/%s/%dx%d/s=%v live", coll, alg.Name(), m[0], m[1], spec.Sources)
					out := runLiveColl(t, coll, alg, spec, 32)
					checkOut(t, label, coll, spec, out, 32)
				}
			}
		}
	}
}

// TestCollectivesSingleProcessor covers the degenerate p=1 machine for
// every collective entry.
func TestCollectivesSingleProcessor(t *testing.T) {
	for _, coll := range Collectives() {
		if coll == Broadcast {
			continue
		}
		spec := Spec{Rows: 1, Cols: 1, Sources: []int{0}, Indexing: topology.SnakeRowMajor}
		for _, alg := range RegistryFor(coll) {
			out := runLiveColl(t, coll, alg, spec, 8)
			checkOut(t, fmt.Sprintf("%s/%s p=1", coll, alg.Name()), coll, spec, out, 8)
		}
	}
}

// TestReduceAllgatherCrossEngine is the cross-engine check the
// collective harness promises: for the reduction and allgather entries,
// the simulator's replay of the program sends and receives, rank by rank,
// what the live engine's run of it does.
func TestReduceAllgatherCrossEngine(t *testing.T) {
	for _, coll := range []Collective{Reduce, AllReduce, AllGather} {
		for _, alg := range RegistryFor(coll) {
			for _, m := range [][2]int{{4, 4}, {3, 5}} {
				for _, spec := range collSpecs(coll, m[0], m[1]) {
					if err := enginesAgree(coll, alg, spec, 24); err != nil {
						t.Fatalf("%s/%s/%dx%d/s=%v: %v", coll, alg.Name(), m[0], m[1], spec.Sources, err)
					}
				}
			}
		}
	}
}

// TestParseCollective covers name resolution including the legacy empty
// string and case-insensitivity.
func TestParseCollective(t *testing.T) {
	if got, err := ParseCollective(""); err != nil || got != Broadcast {
		t.Fatalf("ParseCollective(\"\") = %v, %v", got, err)
	}
	if got, err := ParseCollective("allreduce"); err != nil || got != AllReduce {
		t.Fatalf("ParseCollective(allreduce) = %v, %v", got, err)
	}
	if _, err := ParseCollective("gossip"); err == nil {
		t.Fatal("unknown collective accepted")
	}
}

// TestRegistryForPartition checks the per-collective registry views:
// every entry appears under exactly its own collective, Registry() stays
// the broadcast view, and ByNameFor rejects cross-collective pairings.
func TestRegistryForPartition(t *testing.T) {
	total := 0
	for _, coll := range Collectives() {
		for _, alg := range RegistryFor(coll) {
			total++
			if got := CollectiveOf(alg); got != coll {
				t.Errorf("%s listed under %s", alg.Name(), coll)
			}
			if a, err := ByNameFor(coll, alg.Name()); err != nil || a.Name() != alg.Name() {
				t.Errorf("ByNameFor(%s, %s) = %v, %v", coll, alg.Name(), a, err)
			}
		}
	}
	if broadcasts := Registry(); len(broadcasts) == len(registryAlgs) || total != len(registryAlgs) {
		t.Errorf("registry partition: %d broadcast, %d partitioned, %d total",
			len(Registry()), total, len(registryAlgs))
	}
	if _, err := ByNameFor(AllToAll, "Br_Lin"); err == nil {
		t.Error("broadcast algorithm accepted for AllToAll")
	}
	if _, err := ByNameFor(Broadcast, "A2A_JungSakho"); err == nil {
		t.Error("all-to-all algorithm accepted for Broadcast")
	}
}

// TestCapsTable pins the capability rows the facade validates against.
func TestCapsTable(t *testing.T) {
	if c := Broadcast.Caps(); !c.TakesSources || c.Combining || c.Chunked || c.SingleSource {
		t.Errorf("Broadcast caps = %+v", c)
	}
	for _, coll := range []Collective{Reduce, AllReduce} {
		if c := coll.Caps(); !c.TakesSources || !c.Combining {
			t.Errorf("%s caps = %+v", coll, c)
		}
	}
	if c := Scatter.Caps(); !c.SingleSource || !c.Chunked || !c.TakesSources {
		t.Errorf("Scatter caps = %+v", c)
	}
	if c := AllGather.Caps(); c.TakesSources || c.Chunked {
		t.Errorf("AllGather caps = %+v", c)
	}
	if c := AllToAll.Caps(); c.TakesSources || !c.Chunked {
		t.Errorf("AllToAll caps = %+v", c)
	}
}

// TestCheck: for every collective, Check accepts what a registry entry
// leaves on every rank without allocating, and rejects each way one
// rank's bundle can go wrong with a message naming the rank and the
// origin, and the first bad byte where the bytes are wrong.
func TestCheck(t *testing.T) {
	const rows, cols, size = 2, 4, 13
	const p = rows * cols
	sizes := func(int) int { return size }
	sources := map[Collective][]int{
		Broadcast: {1, 4, 6}, Reduce: {1, 4, 6}, AllReduce: {1, 4, 6}, Scatter: {6},
		AllGather: AllRanksSources(p), AllToAll: AllRanksSources(p),
	}
	for _, coll := range Collectives() {
		t.Run(string(coll), func(t *testing.T) {
			spec := Spec{Rows: rows, Cols: cols, Sources: sources[coll], Indexing: topology.SnakeRowMajor}
			out := runLiveColl(t, coll, RegistryFor(coll)[0], spec, size)
			check := func() {
				for rank, m := range out {
					if err := coll.Check(spec, sizes, rank, m); err != nil {
						t.Fatal(err)
					}
				}
			}
			if allocs := testing.AllocsPerRun(20, check); allocs != 0 {
				t.Errorf("Check allocates %.0f times per run of %d bundles", allocs, p)
			}

			rank := spec.Sources[0] // the root, the one rank a Reduce leaves a result on
			first, last := out[rank].Parts[0].Origin, out[rank].Parts[len(out[rank].Parts)-1].Origin
			for _, tc := range []struct {
				name   string
				origin int  // the origin the error must name
				bytes  bool // whether it must name a byte
				mutate func([]comm.Part) []comm.Part
			}{
				{"missing", last, false, func(pts []comm.Part) []comm.Part { return pts[:len(pts)-1] }},
				{"duplicate", first, false, func(pts []comm.Part) []comm.Part { return append(pts, pts[0]) }},
				{"foreign", p, false, func(pts []comm.Part) []comm.Part {
					return append(pts, comm.Part{Origin: p, Data: pts[0].Data})
				}},
				{"short", first, false, func(pts []comm.Part) []comm.Part {
					pts[0].Data = pts[0].Data[:size-1]
					return pts
				}},
				{"flipped byte", first, true, func(pts []comm.Part) []comm.Part {
					pts[0].Data[size-1] ^= 1
					return pts
				}},
				{"off-by-one chunk", first, true, func(pts []comm.Part) []comm.Part {
					// The neighbouring destination's chunk, or the
					// neighbouring origin's message.
					if coll.Caps().Chunked {
						src, d := pts[0].Origin, (rank+1)%p
						if coll == Scatter {
							src = spec.Sources[0]
						}
						pts[0].Data = coll.Payload(p, src, size)[d*size : (d+1)*size]
					} else {
						pts[0].Data = coll.Payload(p, pts[0].Origin+1, size)
					}
					return pts
				}},
			} {
				parts := slices.Clone(out[rank].Parts)
				for i := range parts {
					parts[i].Data = slices.Clone(parts[i].Data)
				}
				err := coll.Check(spec, sizes, rank, comm.Message{Parts: tc.mutate(parts)})
				want := fmt.Sprintf("rank %d, origin %d:", rank, tc.origin)
				if err == nil || !strings.Contains(err.Error(), want) || tc.bytes != strings.Contains(err.Error(), "byte ") {
					t.Errorf("%s: Check = %v, want an error naming %q (and a byte: %v)", tc.name, err, want, tc.bytes)
				}
			}
		})
	}
}

// TestCheckLeavesOrder: Check sorts a copy, never its argument — a
// bundle's part array may be shared with the ranks that sent it. Every
// rank's bundle, reversed, passes and comes back still reversed, on a
// machine whose AllGather and AllToAll bundles fit Check's stack copy (8
// ranks) and on one whose do not (72).
func TestCheckLeavesOrder(t *testing.T) {
	const size = 5
	sizes := func(int) int { return size }
	for _, shape := range [][2]int{{2, 4}, {8, 9}} {
		rows, cols := shape[0], shape[1]
		p := rows * cols
		sources := map[Collective][]int{
			Broadcast: {1, 4, 6}, Reduce: {1, 4, 6}, AllReduce: {1, 4, 6}, Scatter: {6},
			AllGather: AllRanksSources(p), AllToAll: AllRanksSources(p),
		}
		for _, coll := range Collectives() {
			spec := Spec{Rows: rows, Cols: cols, Sources: sources[coll], Indexing: topology.SnakeRowMajor}
			for rank, m := range runLiveColl(t, coll, RegistryFor(coll)[0], spec, size) {
				slices.Reverse(m.Parts)
				origins := func() []int {
					out := make([]int, len(m.Parts))
					for i, part := range m.Parts {
						out[i] = part.Origin
					}
					return out
				}
				want := origins()
				if err := coll.Check(spec, sizes, rank, m); err != nil {
					t.Fatalf("%s on %d ranks, rank %d: %v", coll, p, rank, err)
				}
				if got := origins(); !slices.Equal(got, want) {
					t.Fatalf("%s on %d ranks, rank %d: Check reordered the parts %v to %v", coll, p, rank, want, got)
				}
			}
		}
	}
}
