package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// chunkFor builds the distinctive chunk an origin addresses to dest under
// the chunked collectives (Scatter, AllToAll).
func chunkFor(origin, dest, size int) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(origin*31 + dest*131 + i)
	}
	return data
}

// chunkedPayloadFor is the p·size-byte payload of a chunked-collective
// rank: the concatenation of its p per-destination chunks.
func chunkedPayloadFor(origin, p, size int) []byte {
	data := make([]byte, 0, p*size)
	for d := 0; d < p; d++ {
		data = append(data, chunkFor(origin, d, size)...)
	}
	return data
}

// reducedFor is the byte-wise sum mod 256 of the sources' payloads — the
// expected result of Reduce/AllReduce.
func reducedFor(sources []int, size int) []byte {
	sum := make([]byte, size)
	for _, s := range sources {
		for i, b := range payloadFor(s, size) {
			sum[i] += b
		}
	}
	return sum
}

func collPayload(coll Collective, p, size int) func(rank int) []byte {
	if coll.Caps().Chunked {
		return func(rank int) []byte { return chunkedPayloadFor(rank, p, size) }
	}
	return func(rank int) []byte { return payloadFor(rank, size) }
}

// runSimColl executes a collective algorithm on the simulator with real
// payload bytes and returns the per-rank result bundles.
func runSimColl(t *testing.T, coll Collective, alg Algorithm, spec Spec, size int) []comm.Message {
	t.Helper()
	topo := topology.MustMesh2D(spec.Rows, spec.Cols)
	nw, err := network.New(topo, topology.IdentityPlacement(spec.P()), network.ParagonNX())
	if err != nil {
		t.Fatal(err)
	}
	payload := collPayload(coll, spec.P(), size)
	out := make([]comm.Message, spec.P())
	if _, err := sim.Run(nw, func(pr *sim.Proc) {
		mine := InitialFor(coll, spec, pr.Rank(), payload)
		out[pr.Rank()] = alg.Run(pr, spec, mine)
	}, sim.Options{}); err != nil {
		t.Fatalf("%s/%s on %d×%d: %v", coll, alg.Name(), spec.Rows, spec.Cols, err)
	}
	return out
}

// runLiveColl is runSimColl on the live goroutine engine.
func runLiveColl(t *testing.T, coll Collective, alg Algorithm, spec Spec, size int) []comm.Message {
	t.Helper()
	payload := collPayload(coll, spec.P(), size)
	out := make([]comm.Message, spec.P())
	if _, err := live.Run(spec.P(), func(pr *live.Proc) {
		mine := InitialFor(coll, spec, pr.Rank(), payload)
		out[pr.Rank()] = alg.Run(pr, spec, mine)
	}); err != nil {
		t.Fatalf("%s/%s on %d×%d (live): %v", coll, alg.Name(), spec.Rows, spec.Cols, err)
	}
	return out
}

// verifyCollective asserts the byte-exact postcondition of each
// collective: Reduce concentrates the fold at the root, AllReduce
// replicates it, Scatter leaves rank r with exactly chunk r, AllGather
// concatenates every contribution everywhere, AllToAll transposes the
// chunk matrix.
func verifyCollective(t *testing.T, label string, coll Collective, spec Spec, out []comm.Message, size int) {
	t.Helper()
	p := spec.P()
	switch coll {
	case Broadcast:
		verifyBundles(t, label, spec, out, size)
	case Reduce, AllReduce:
		want := reducedFor(spec.Sources, size)
		for rank, m := range out {
			if coll == Reduce && rank != spec.Sources[0] {
				if len(m.Parts) != 0 {
					t.Fatalf("%s: non-root rank %d holds %d parts", label, rank, len(m.Parts))
				}
				continue
			}
			if len(m.Parts) != 1 || m.Parts[0].Origin != ReducedOrigin {
				t.Fatalf("%s: rank %d result parts = %v, want one ReducedOrigin part", label, rank, m.Origins())
			}
			if !reflect.DeepEqual(m.Parts[0].Data, want) {
				t.Fatalf("%s: rank %d reduced bytes wrong", label, rank)
			}
		}
	case Scatter:
		root := spec.Sources[0]
		for rank, m := range out {
			if len(m.Parts) != 1 || m.Parts[0].Origin != rank {
				t.Fatalf("%s: rank %d holds %v, want its own chunk", label, rank, m.Origins())
			}
			if !reflect.DeepEqual(m.Parts[0].Data, chunkFor(root, rank, size)) {
				t.Fatalf("%s: rank %d chunk bytes wrong", label, rank)
			}
		}
	case AllGather:
		for rank, m := range out {
			if !reflect.DeepEqual(m.Origins(), spec.Sources) {
				t.Fatalf("%s: rank %d origins = %v, want %v", label, rank, m.Origins(), spec.Sources)
			}
			for _, pt := range m.Parts {
				if !reflect.DeepEqual(pt.Data, payloadFor(pt.Origin, size)) {
					t.Fatalf("%s: rank %d payload of origin %d corrupted", label, rank, pt.Origin)
				}
			}
		}
	case AllToAll:
		for rank, m := range out {
			if !reflect.DeepEqual(m.Origins(), AllRanksSources(p)) {
				t.Fatalf("%s: rank %d origins = %v, want all ranks", label, rank, m.Origins())
			}
			for _, pt := range m.Parts {
				if !reflect.DeepEqual(pt.Data, chunkFor(pt.Origin, rank, size)) {
					t.Fatalf("%s: rank %d chunk from origin %d corrupted", label, rank, pt.Origin)
				}
			}
		}
	}
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

// TestCollectivesSim is the per-collective correctness matrix on the
// simulator: every non-broadcast registry entry × several machine shapes
// (power-of-two and not, to exercise the fallbacks) × source variants,
// verified byte-exact.
func TestCollectivesSim(t *testing.T) {
	meshes := [][2]int{{1, 8}, {4, 4}, {3, 5}, {4, 7}}
	for _, coll := range Collectives() {
		if coll == Broadcast {
			continue
		}
		for _, alg := range RegistryFor(coll) {
			for _, m := range meshes {
				for _, spec := range collSpecs(coll, m[0], m[1]) {
					label := fmt.Sprintf("%s/%s/%dx%d/s=%v", coll, alg.Name(), m[0], m[1], spec.Sources)
					out := runSimColl(t, coll, alg, spec, 16)
					verifyCollective(t, label, coll, spec, out, 16)
				}
			}
		}
	}
}

// TestCollectivesLive runs a reduced matrix on the live goroutine engine
// with real bytes.
func TestCollectivesLive(t *testing.T) {
	meshes := [][2]int{{4, 4}, {3, 5}}
	for _, coll := range Collectives() {
		if coll == Broadcast {
			continue
		}
		for _, alg := range RegistryFor(coll) {
			for _, m := range meshes {
				for _, spec := range collSpecs(coll, m[0], m[1]) {
					label := fmt.Sprintf("%s/%s/%dx%d/s=%v live", coll, alg.Name(), m[0], m[1], spec.Sources)
					out := runLiveColl(t, coll, alg, spec, 32)
					verifyCollective(t, label, coll, spec, out, 32)
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
			out := runSimColl(t, coll, alg, spec, 8)
			verifyCollective(t, fmt.Sprintf("%s/%s p=1", coll, alg.Name()), coll, spec, out, 8)
		}
	}
}

// TestReduceAllgatherCrossEngine is the cross-engine same-result check
// the collective harness promises: for the reduction and allgather
// entries, the simulator and the live engine must produce byte-identical
// per-rank bundles.
func TestReduceAllgatherCrossEngine(t *testing.T) {
	for _, coll := range []Collective{Reduce, AllReduce, AllGather} {
		for _, alg := range RegistryFor(coll) {
			for _, m := range [][2]int{{4, 4}, {3, 5}} {
				for _, spec := range collSpecs(coll, m[0], m[1]) {
					simOut := runSimColl(t, coll, alg, spec, 24)
					liveOut := runLiveColl(t, coll, alg, spec, 24)
					for rank := range simOut {
						if !reflect.DeepEqual(simOut[rank], liveOut[rank]) {
							t.Fatalf("%s/%s/%dx%d/s=%v: rank %d sim and live bundles differ",
								coll, alg.Name(), m[0], m[1], spec.Sources, rank)
						}
					}
				}
			}
		}
	}
}

// TestReduceBundle pins the fold semantics: byte-wise sum mod 256 on the
// data path, max length on the length-only path, empty in empty out.
func TestReduceBundle(t *testing.T) {
	got := ReduceBundle(comm.Message{Parts: []comm.Part{
		{Origin: 0, Data: []byte{1, 2, 250}},
		{Origin: 3, Data: []byte{10, 20}},
	}})
	want := []byte{11, 22, 250}
	if len(got.Parts) != 1 || got.Parts[0].Origin != ReducedOrigin || !reflect.DeepEqual(got.Parts[0].Data, want) {
		t.Fatalf("ReduceBundle data fold = %+v", got.Parts)
	}
	lenOnly := ReduceBundle(comm.Message{Parts: []comm.Part{{Origin: 0, Size: 8}, {Origin: 1, Size: 16}}})
	if len(lenOnly.Parts) != 1 || lenOnly.Parts[0].Data != nil || lenOnly.Parts[0].Len() != 16 {
		t.Fatalf("ReduceBundle length fold = %+v", lenOnly.Parts)
	}
	if empty := ReduceBundle(comm.Message{}); len(empty.Parts) != 0 {
		t.Fatalf("ReduceBundle(empty) = %+v", empty.Parts)
	}
}

// TestReduceBundleMatchesByteLoop: the word-wise fold computes what the
// plain byte loop does, over random bundles of unequal parts — lengths
// on and off the 8-byte grid, length-only parts mixed in, bytes near the
// carry boundaries.
func TestReduceBundleMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		m := comm.Message{Tag: trial, Parts: make([]comm.Part, 1+rng.Intn(6))}
		maxLen, anyData := 0, false
		for i := range m.Parts {
			n := rng.Intn(70)
			if rng.Intn(5) == 0 {
				m.Parts[i] = comm.Part{Origin: i, Size: n}
			} else {
				data := make([]byte, n)
				for j := range data {
					data[j] = []byte{0, 1, 0x7f, 0x80, 0xff, byte(rng.Intn(256))}[rng.Intn(6)]
				}
				m.Parts[i] = comm.Part{Origin: i, Data: data}
				anyData = true
			}
			maxLen = max(maxLen, n)
		}
		want := comm.Part{Origin: ReducedOrigin, Size: maxLen}
		if anyData {
			sum := make([]byte, maxLen)
			for _, p := range m.Parts {
				for i, b := range p.Data {
					sum[i] += b
				}
			}
			want = comm.Part{Origin: ReducedOrigin, Data: sum}
		}
		got := ReduceBundle(m)
		if got.Tag != m.Tag || len(got.Parts) != 1 || !reflect.DeepEqual(got.Parts[0], want) {
			t.Fatalf("trial %d: ReduceBundle = %+v, byte loop = %+v", trial, got.Parts, want)
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
	if c := Broadcast.Caps(); !c.TakesSources || !c.Cluster || c.Combining || c.Chunked || c.SingleSource {
		t.Errorf("Broadcast caps = %+v", c)
	}
	for _, coll := range []Collective{Reduce, AllReduce} {
		if c := coll.Caps(); !c.TakesSources || !c.Combining || c.Cluster {
			t.Errorf("%s caps = %+v", coll, c)
		}
	}
	if c := Scatter.Caps(); !c.SingleSource || !c.Chunked || !c.TakesSources || c.Cluster {
		t.Errorf("Scatter caps = %+v", c)
	}
	if c := AllGather.Caps(); c.TakesSources || c.Chunked || c.Cluster {
		t.Errorf("AllGather caps = %+v", c)
	}
	if c := AllToAll.Caps(); c.TakesSources || !c.Chunked || c.Cluster {
		t.Errorf("AllToAll caps = %+v", c)
	}
}
