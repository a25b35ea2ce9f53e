package stpbcast_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	stpbcast "repro"
	"repro/internal/comm"
	"repro/internal/core"
)

// TestConfigValidateCollectives table-tests the capability-row checks:
// each case lists the substrings (field names included) the joined error
// must carry, or none for a valid config.
func TestConfigValidateCollectives(t *testing.T) {
	cases := []struct {
		name string
		cfg  stpbcast.Config
		want []string // substrings of the joined error; empty means valid
	}{
		{
			"broadcast zero collective",
			stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 64},
			nil,
		},
		{
			"allreduce sourceless",
			stpbcast.Config{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: 64},
			nil,
		},
		{
			"alltoall sourceless",
			stpbcast.Config{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_JungSakho", MsgBytes: 64},
			nil,
		},
		{
			"scatter explicit root",
			stpbcast.Config{Collective: stpbcast.CollectiveScatter, Algorithm: "Scatter_Binomial", SourceRanks: []int{3}, MsgBytes: 64},
			nil,
		},
		{
			"unknown collective",
			stpbcast.Config{Collective: "Gossip", Algorithm: "Br_Lin", MsgBytes: 64},
			[]string{"Config.Collective", "unknown collective"},
		},
		{
			"source ranks on an all-to-all",
			stpbcast.Config{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise", SourceRanks: []int{0, 1}, MsgBytes: 64},
			[]string{"Config.SourceRanks", "AllToAll"},
		},
		{
			"distribution on an allgather",
			stpbcast.Config{Collective: stpbcast.CollectiveAllGather, Algorithm: "Ag_Ring", Distribution: "E", Sources: 4, MsgBytes: 64},
			[]string{"Config.Distribution", "Config.Sources", "AllGather"},
		},
		{
			"two roots on a scatter",
			stpbcast.Config{Collective: stpbcast.CollectiveScatter, Algorithm: "Scatter_Binomial", SourceRanks: []int{0, 1}, MsgBytes: 64},
			[]string{"Config.SourceRanks", "single root"},
		},
		{
			"per-source lengths on a reduce",
			stpbcast.Config{Collective: stpbcast.CollectiveReduce, Algorithm: "Red_Tree", Distribution: "E", Sources: 4, MsgBytes: 64, MsgBytesFor: func(int) int { return 8 }},
			[]string{"Config.MsgBytesFor", "broadcast-only"},
		},
		{
			"every violation reported at once",
			stpbcast.Config{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise", Distribution: "E", Sources: 4, SourceRanks: []int{0}, MsgBytes: -5},
			[]string{"Config.Distribution", "Config.Sources", "Config.SourceRanks", "Config.MsgBytes", "negative message length"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.want)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("Validate() = %q, missing %q", err, sub)
				}
			}
		})
	}
}

// TestRunCollectives drives every non-broadcast collective through the
// unified Run API on the simulator and the live engine with default
// payloads and checks the delivered bundles byte-exactly (live) and the
// engines' acceptance (sim, which prices lengths only).
func TestRunCollectives(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	for _, cfg := range []stpbcast.Config{
		{Collective: stpbcast.CollectiveReduce, Algorithm: "Red_Tree", MsgBytes: 32},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: 32},
		{Collective: stpbcast.CollectiveScatter, Algorithm: "Scatter_Binomial", MsgBytes: 32},
		{Collective: stpbcast.CollectiveAllGather, Algorithm: "Ag_RecDouble", MsgBytes: 32},
		{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_JungSakho", MsgBytes: 32},
	} {
		t.Run(strings.ToLower(string(cfg.Collective)), func(t *testing.T) {
			if res, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{}); err != nil {
				t.Fatalf("EngineSim: %v", err)
			} else if res.Elapsed <= 0 {
				t.Fatalf("EngineSim: non-positive elapsed %v", res.Elapsed)
			}
			res, err := stpbcast.Run(m, stpbcast.EngineLive, cfg, stpbcast.RunOptions{})
			if err != nil {
				t.Fatalf("EngineLive: %v", err)
			}
			checkResult(t, m, cfg, res)
		})
	}
}

// TestRunCollectiveAuto lets the planner choose for each collective and
// checks the decision lands on an algorithm of that collective.
func TestRunCollectiveAuto(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	for _, coll := range stpbcast.Collectives() {
		cfg := stpbcast.Config{Collective: coll, Algorithm: stpbcast.AutoAlgorithm, MsgBytes: 64}
		if coll == stpbcast.CollectiveBroadcast {
			cfg.Distribution = "E"
			cfg.Sources = 4
		}
		dec, err := stpbcast.Plan(m, cfg)
		if err != nil {
			t.Fatalf("%s: Plan: %v", coll, err)
		}
		if _, err := stpbcast.AlgorithmByNameFor(coll, dec.Algorithm); err != nil {
			t.Fatalf("%s: planner chose %q: %v", coll, dec.Algorithm, err)
		}
		if _, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{}); err != nil {
			t.Fatalf("%s: Run(Auto): %v", coll, err)
		}
	}
}

// TestAutoSelectsJungSakho is the acceptance check for the torus
// all-to-all: on the T3D at latency-bound chunk sizes the planner's
// Auto must pick the Jung–Sakho dimension-ordered schedule over the
// direct pairwise exchange (the analytic model predicts the crossover
// and the probe tier confirms it; at large L the preference flips).
func TestAutoSelectsJungSakho(t *testing.T) {
	m := stpbcast.NewT3D(64)
	dec, err := stpbcast.Plan(m, stpbcast.Config{
		Collective: stpbcast.CollectiveAllToAll,
		MsgBytes:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Algorithm != "A2A_JungSakho" {
		t.Fatalf("Auto chose %q for AllToAll on T3D(64) at L=64, want A2A_JungSakho", dec.Algorithm)
	}
}

// TestRunOptionsAlgorithmCollectiveGuard: an explicit RunOptions.Algorithm
// whose collective tag disagrees with Config.Collective is rejected on
// every engine path, and a named Config.Algorithm of the wrong collective
// is rejected by resolution.
func TestRunOptionsAlgorithmCollectiveGuard(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	brLin, err := stpbcast.AlgorithmByName("Br_Lin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := stpbcast.Config{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: 64}
	_, err = stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{Algorithm: brLin})
	if err == nil || !strings.Contains(err.Error(), "implements Broadcast") {
		t.Fatalf("sim run with mismatched explicit algorithm: %v, want collective mismatch", err)
	}
	_, err = stpbcast.Run(m, stpbcast.EngineLive, cfg, stpbcast.RunOptions{Algorithm: brLin})
	if err == nil || !strings.Contains(err.Error(), "implements Broadcast") {
		t.Fatalf("live run with mismatched explicit algorithm: %v, want collective mismatch", err)
	}
	named := stpbcast.Config{Collective: stpbcast.CollectiveAllReduce, Algorithm: "Br_Lin", MsgBytes: 64}
	_, err = stpbcast.Run(m, stpbcast.EngineSim, named, stpbcast.RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "implements Broadcast, not AllReduce") {
		t.Fatalf("sim run with mismatched named algorithm: %v, want collective mismatch", err)
	}
}

// TestAlgorithmsForPartition: the per-collective registries are disjoint,
// non-empty, and together cover the full registry surface.
func TestAlgorithmsForPartition(t *testing.T) {
	seen := map[string]stpbcast.Collective{}
	for _, coll := range stpbcast.Collectives() {
		algs := stpbcast.AlgorithmsFor(coll)
		if len(algs) == 0 {
			t.Fatalf("no algorithms registered for %s", coll)
		}
		for _, a := range algs {
			if prev, dup := seen[a.Name()]; dup {
				t.Fatalf("algorithm %s listed under both %s and %s", a.Name(), prev, coll)
			}
			seen[a.Name()] = coll
		}
	}
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(stpbcast.Algorithms()) >= len(names) {
		t.Fatalf("broadcast registry (%d entries) should be a strict subset of the %d collective entries %v",
			len(stpbcast.Algorithms()), len(names), names)
	}
}

// wrapper is an algorithm value from outside the registry: it runs the
// registry entry it wraps on the communicator it is given.
type wrapper struct{ inner stpbcast.Algorithm }

func (w wrapper) Name() string                    { return "Wrapped_" + w.inner.Name() }
func (w wrapper) Collective() stpbcast.Collective { return core.CollectiveOf(w.inner) }
func (w wrapper) Run(c comm.Comm, spec core.Spec, mine comm.Message) comm.Message {
	return w.inner.Run(c, spec, mine)
}

// talker is an algorithm value that communicates by itself: it has no
// program to simulate.
type talker struct{}

func (talker) Name() string { return "Talker" }
func (talker) Run(c comm.Comm, _ core.Spec, mine comm.Message) comm.Message {
	c.Send((c.Rank()+1)%c.Size(), mine)
	return c.Recv((c.Rank() + c.Size() - 1) % c.Size())
}

// TestSimCompilesAlgorithmValues: on EngineSim an algorithm value is
// compiled, not run. One that wraps a registry entry simulates exactly
// what the named entry does — its program's parameters and activity
// profile included — and one that talks outside a program is refused
// with an error that names it.
func TestSimCompilesAlgorithmValues(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	for _, cfg := range []stpbcast.Config{
		{Collective: stpbcast.CollectiveBroadcast, Algorithm: "Br_xy_source", Distribution: "Cr", Sources: 6, MsgBytes: 512},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: 64},
	} {
		named, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inner, err := stpbcast.AlgorithmByNameFor(cfg.Collective, cfg.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{Algorithm: wrapper{inner}})
		if err != nil {
			t.Fatalf("%s wrapped: %v", cfg.Algorithm, err)
		}
		if got.Elapsed != named.Elapsed || got.Params != named.Params || !reflect.DeepEqual(got.ActiveProfile, named.ActiveProfile) || !reflect.DeepEqual(got.HotLinks, named.HotLinks) {
			t.Errorf("%s wrapped gives %v %+v %v %v, named %v %+v %v %v", cfg.Algorithm,
				got.Elapsed, got.Params, got.ActiveProfile, got.HotLinks, named.Elapsed, named.Params, named.ActiveProfile, named.HotLinks)
		}
		if named.Params.Iterations == 0 || len(named.ActiveProfile) == 0 {
			t.Errorf("%s: no iterations read off the program: %+v", cfg.Algorithm, named.Params)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{Distribution: "E", Sources: 4, MsgBytes: 64},
			stpbcast.RunOptions{Algorithm: talker{}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "Talker") || !strings.Contains(err.Error(), "outside a program") {
			t.Errorf("an algorithm that talks outside a program: got %v, want an error naming Talker", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("an algorithm that talks outside a program hung the simulator")
	}
}
