package plan

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testSpec(t testing.TB, m *machine.Machine, d dist.Distribution, s int) core.Spec {
	t.Helper()
	sources, err := d.Sources(m.Rows, m.Cols, s)
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sources, Indexing: topology.SnakeRowMajor}
}

func TestKeyBucketsAndSignatures(t *testing.T) {
	m := machine.Paragon(10, 10)
	spec := testSpec(t, m, dist.Equal(), 30)
	// Same power-of-two bucket: one key.
	if NewKey(m, core.Broadcast, spec, 4096, "E") != NewKey(m, core.Broadcast, spec, 8191, "E") {
		t.Error("L=4096 and L=8191 should share bucket 13")
	}
	// Bucket boundary: different keys.
	if NewKey(m, core.Broadcast, spec, 4096, "E") == NewKey(m, core.Broadcast, spec, 4095, "E") {
		t.Error("L=4096 and L=4095 should differ")
	}
	// Named distribution vs explicit ranks: different signatures.
	if NewKey(m, core.Broadcast, spec, 4096, "E").Dist == NewKey(m, core.Broadcast, spec, 4096, "").Dist {
		t.Error("named and hashed signatures collide")
	}
	// Different explicit rank sets: different hashes.
	other := testSpec(t, m, dist.Cross(), 30)
	if NewKey(m, core.Broadcast, spec, 4096, "").Dist == NewKey(m, core.Broadcast, other, 4096, "").Dist {
		t.Error("distinct rank sets hash equal")
	}
	// Same sources in another rank order: different keys.
	rowMajor := spec
	rowMajor.Indexing = topology.RowMajor
	if NewKey(m, core.Broadcast, spec, 4096, "E") == NewKey(m, core.Broadcast, rowMajor, 4096, "E") {
		t.Error("snake and row-major instances share a key")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewMemCache(0)
	m := machine.Paragon(4, 4)
	spec := testSpec(t, m, dist.Equal(), 4)
	k := NewKey(m, core.Broadcast, spec, 1024, "E")
	hits := metrics.GetCounter(CounterCacheHits)
	misses := metrics.GetCounter(CounterCacheMisses)
	h0, m0 := hits.Value(), misses.Value()
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, Entry{Algorithm: "Br_Lin", ElapsedMs: 1.5})
	e, ok := c.Get(k)
	if !ok || e.Algorithm != "Br_Lin" {
		t.Fatalf("get after put: %v %v", e, ok)
	}
	if hits.Value()-h0 != 1 || misses.Value()-m0 != 1 {
		t.Fatalf("counters hits+%d misses+%d, want +1/+1", hits.Value()-h0, misses.Value()-m0)
	}
}

func TestCacheEvictionFIFO(t *testing.T) {
	c := NewMemCache(3)
	m := machine.Paragon(4, 4)
	spec := testSpec(t, m, dist.Equal(), 4)
	var keys []Key
	for i := 0; i < 5; i++ {
		k := NewKey(m, core.Broadcast, spec, 1<<uint(i+4), "E") // distinct L buckets
		keys = append(keys, k)
		c.Put(k, Entry{Algorithm: "Br_Lin"})
	}
	if len(c.entries) != 3 {
		t.Fatalf("len %d, want 3", len(c.entries))
	}
	for i, k := range keys {
		_, ok := c.Get(k)
		if want := i >= 2; ok != want {
			t.Errorf("key %d present=%v, want %v (FIFO should evict the two oldest)", i, ok, want)
		}
	}
}

func TestRankCoversAllCandidates(t *testing.T) {
	m := machine.Paragon(8, 8)
	spec := testSpec(t, m, dist.Square(), 16)
	var names []string
	for _, a := range core.Registry() {
		names = append(names, a.Name())
	}
	ranking := Rank(m, spec, 4096, names)
	if len(ranking) != len(names) {
		t.Fatalf("%d scores for %d candidates", len(ranking), len(names))
	}
	seen := map[string]bool{}
	for i, sc := range ranking {
		if seen[sc.Algorithm] {
			t.Fatalf("duplicate %s", sc.Algorithm)
		}
		seen[sc.Algorithm] = true
		if sc.PredictedMs <= 0 || math.IsNaN(sc.PredictedMs) {
			t.Fatalf("%s predicted %v", sc.Algorithm, sc.PredictedMs)
		}
		if i > 0 && ranking[i].PredictedMs < ranking[i-1].PredictedMs {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
}

func TestDecideDeterministic(t *testing.T) {
	m := machine.Paragon(10, 10)
	spec := testSpec(t, m, dist.Cross(), 20)
	req := Request{Spec: spec, MsgLen: 4096, DistName: "Cr"}
	// Two independent cold planners (fresh caches), one probing serially
	// and one on four workers, must agree exactly.
	defer par.SetLimit(0)
	var decs []*Decision
	for i := 0; i < 2; i++ {
		par.SetLimit(1 + i*3)
		p := New(Options{Cache: NewMemCache(0)})
		d, err := p.Decide(context.Background(), m, req)
		if err != nil {
			t.Fatal(err)
		}
		decs = append(decs, d)
	}
	if decs[0].Algorithm != decs[1].Algorithm || decs[0].ElapsedMs != decs[1].ElapsedMs {
		t.Fatalf("cold decisions differ: %+v vs %+v", decs[0], decs[1])
	}
	if !reflect.DeepEqual(decs[0].Probes, decs[1].Probes) {
		t.Fatalf("probe sets differ: %v vs %v", decs[0].Probes, decs[1].Probes)
	}
	if decs[0].Source != "probe" {
		t.Fatalf("cold decision source %q", decs[0].Source)
	}
}

// TestDecideProbesSmallRegistriesWhole: every collective but Broadcast
// has at most topK entries, so Decide probes its whole registry in
// registry order and ranks nothing. Its choice is then the first entry
// with the least simulated time, which RunSim of every entry checks case
// by case — including exact ties, such as Ag_RecDouble, which runs
// Ag_Ring's program at a p that is not a power of two.
func TestDecideProbesSmallRegistriesWhole(t *testing.T) {
	machines := []*machine.Machine{
		machine.Paragon(1, 13), machine.Paragon(5, 3), machine.Paragon(4, 4),
		machine.Paragon(10, 10), machine.T3D(64), machine.HypercubeNX(3),
	}
	for _, coll := range core.Collectives() {
		reg := core.RegistryFor(coll)
		if coll == core.Broadcast {
			continue
		}
		if len(reg) > topK {
			t.Fatalf("%s has %d entries, more than topK = %d", coll, len(reg), topK)
		}
		for _, m := range machines {
			sources := core.AllRanksSources(m.P())
			if coll.Caps().SingleSource {
				sources = []int{0}
			}
			spec := core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sources, Indexing: topology.SnakeRowMajor}
			for _, l := range []int{0, 16, 1 << 10, 64 << 10} {
				t.Run(fmt.Sprintf("%s/%s/L=%d", coll, m.Name, l), func(t *testing.T) {
					best, bestMs := "", math.Inf(1)
					var names []string
					for _, alg := range reg {
						res, nw, err := m.RunSim(alg, spec, machine.Uniform(l), sim.Options{})
						if err != nil {
							t.Fatal(err)
						}
						nw.Release()
						if ms := res.Elapsed.Milliseconds(); ms < bestMs {
							best, bestMs = alg.Name(), ms
						}
						names = append(names, alg.Name())
					}
					dec, err := New(Options{}).Decide(context.Background(), m, Request{Collective: coll, Spec: spec, MsgLen: l})
					if err != nil {
						t.Fatal(err)
					}
					if dec.Algorithm != best || dec.ElapsedMs != bestMs {
						t.Errorf("decided %s at %v ms, want %s at %v ms", dec.Algorithm, dec.ElapsedMs, best, bestMs)
					}
					var probed []string
					for _, pr := range dec.Probes {
						probed = append(probed, pr.Algorithm)
					}
					slices.Sort(probed)
					if slices.Sort(names); !slices.Equal(probed, names) {
						t.Errorf("probed %v, want every entry of %v", probed, names)
					}
					if len(dec.Ranking) != 0 {
						t.Errorf("ranked %d candidates, want none", len(dec.Ranking))
					}
				})
			}
		}
	}
}

func TestDecideWarmCacheSkipsProbes(t *testing.T) {
	m := machine.T3D(64)
	spec := testSpec(t, m, dist.Equal(), 16)
	req := Request{Spec: spec, MsgLen: 2048, DistName: "E"}
	p := New(Options{Cache: NewMemCache(0)})
	probes := metrics.GetCounter(CounterProbes)
	hits := metrics.GetCounter(CounterCacheHits)

	cold, err := p.Decide(context.Background(), m, req)
	if err != nil {
		t.Fatal(err)
	}
	p0, h0 := probes.Value(), hits.Value()
	warm, err := p.Decide(context.Background(), m, req)
	if err != nil {
		t.Fatal(err)
	}
	if probes.Value() != p0 {
		t.Fatalf("warm decide ran %d probes, want 0", probes.Value()-p0)
	}
	if hits.Value() != h0+1 {
		t.Fatalf("warm decide recorded %d hits, want 1", hits.Value()-h0)
	}
	if warm.Source != "cache" || warm.Algorithm != cold.Algorithm || warm.ElapsedMs != cold.ElapsedMs {
		t.Fatalf("warm decision %+v does not reproduce cold %+v", warm, cold)
	}
}

func TestDecideCancelled(t *testing.T) {
	m := machine.Paragon(10, 10)
	spec := testSpec(t, m, dist.Equal(), 30)
	p := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Decide(ctx, m, Request{Spec: spec, MsgLen: 4096, DistName: "E"}); err == nil {
		t.Fatal("cancelled decide succeeded")
	}
}

func TestDecideRejectsInvalidSpec(t *testing.T) {
	m := machine.Paragon(4, 4)
	bad := core.Spec{Rows: 4, Cols: 4, Sources: []int{99}, Indexing: topology.SnakeRowMajor}
	p := New(Options{})
	if _, err := p.Decide(context.Background(), m, Request{Spec: bad, MsgLen: 64}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	spec := testSpec(t, m, dist.Equal(), 4)
	if _, err := p.Decide(context.Background(), m, Request{Spec: spec, MsgLen: -1}); err == nil {
		t.Fatal("negative length accepted")
	}
}

// TestColdDecideAllocationBudget counts what a fresh planner with an
// empty cache allocates deciding a handful of the benchmark's plan_cold
// instances — the broadcasts' analytic ranking, probe simulations, one
// cache fill each —
// among them the largest, a T3D-256 broadcast, in objects and in bytes.
// Probes run on one worker (par.SetLimit), as they do by default at the
// GOMAXPROCS of 1 the sweep pins, which also sizes the simulator's engine
// free list. The least of three sweeps after a first, so neither a
// collection during one nor the storage the first grows counts.
func TestColdDecideAllocationBudget(t *testing.T) {
	type instance struct {
		m   *machine.Machine
		req Request
	}
	broadcast := func(m *machine.Machine, d dist.Distribution, distName string, s, l int) instance {
		return instance{m, Request{Collective: core.Broadcast, Spec: testSpec(t, m, d, s), MsgLen: l, DistName: distName}}
	}
	all := func(m *machine.Machine, coll core.Collective, l int) instance {
		spec := core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: core.AllRanksSources(m.P()), Indexing: topology.SnakeRowMajor}
		return instance{m, Request{Collective: coll, Spec: spec, MsgLen: l}}
	}
	t3d64 := machine.T3D(64)
	grid := []instance{
		broadcast(machine.Paragon(10, 10), dist.Equal(), "E", 12, 1<<10),
		broadcast(machine.T3D(256), dist.Cross(), "Cr", 64, 4<<10),
		all(t3d64, core.AllToAll, 16),
		all(t3d64, core.AllReduce, 4<<10),
	}
	par.SetLimit(1)
	defer par.SetLimit(0)
	sweep := func() {
		pl := New(Options{Cache: NewMemCache(0)})
		for _, in := range grid {
			if _, err := pl.Decide(context.Background(), in.m, in.req); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sweep()
	least, leastKB := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sweep()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		leastKB = min(leastKB, (after.TotalAlloc-before.TotalAlloc)/1000)
	}
	t.Logf("%d allocations, %d kB per cold sweep of %d instances", least, leastKB, len(grid))
	if least > coldDecideAllocBudget || leastKB > coldDecideKBBudget {
		t.Errorf("%d allocations, %d kB per cold sweep, budget %d, %d kB", least, leastKB, coldDecideAllocBudget, coldDecideKBBudget)
	}
}
