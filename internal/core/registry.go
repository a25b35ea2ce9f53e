package core

import (
	"fmt"
	"sync"
)

// The algorithm suite is built once and shared: every algorithm is a
// stateless value whose Run method keeps all per-broadcast state on the
// stack, so one instance can serve concurrent runs. Every run resolves
// the registry, and the planner's ranking and probe loops resolve it hot.
var (
	registryOnce sync.Once
	registryAlgs []Algorithm
	registryIdx  map[string]Algorithm
)

func buildRegistry() {
	registryAlgs = []Algorithm{
		TwoStep(),
		PersAlltoAll(),
		BrLin(),
		BrXYSource(),
		BrXYDim(),
		ReposLin(),
		ReposXYSource(),
		ReposXYDim(),
		PartLin(),
		PartXYSource(),
		PartXYDim(),
		RingAllGather(),
		RDAllGather(),
		Indep1toP(),
		// Beyond the paper: the k-ported broadcast, a schedule for
		// machines with multi-channel nodes, k=4 by default.
		BrKPort(4),
		// Träff's circulant-graph logarithmic broadcast schedule.
		BcastCirculant(),
		// The non-broadcast collectives (tagged via CollectiveAlgorithm):
		// reduction, all-reduction, scatter, allgather, all-to-all.
		RedTree(),
		AllRedRecDouble(),
		AllRedRedBcast(),
		ScatterBinomial(),
		ScatterDirect(),
		AgRing(),
		AgRecDouble(),
		A2APairwise(),
		A2AJungSakho(),
	}
	registryIdx = make(map[string]Algorithm, len(registryAlgs))
	for _, a := range registryAlgs {
		registryIdx[a.Name()] = a
	}
}

// Registry returns every implemented s-to-p broadcasting algorithm: the
// paper's full set plus the Ring_AllGather ablation and the circulant
// schedule. The order matches the paper's presentation (Section 2, then
// Section 3), extensions last. The returned slice is a fresh copy; the
// algorithm instances are shared and safe for concurrent use. Algorithms
// for the other collectives live behind RegistryFor.
func Registry() []Algorithm {
	return RegistryFor(Broadcast)
}

// RegistryFor returns every registered algorithm implementing the given
// collective, in registration order. The returned slice is a fresh copy;
// the instances are shared and safe for concurrent use.
func RegistryFor(coll Collective) []Algorithm {
	registryOnce.Do(buildRegistry)
	var out []Algorithm
	for _, a := range registryAlgs {
		if CollectiveOf(a) == coll {
			out = append(out, a)
		}
	}
	return out
}

// ByName returns the algorithm with the paper's name ("Br_Lin",
// "Repos_xy_source", ...), searching every collective's entries.
func ByName(name string) (Algorithm, error) {
	registryOnce.Do(buildRegistry)
	if a, ok := registryIdx[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %q", name)
}

// registered reports whether name is a registry entry's.
func registered(name string) bool {
	registryOnce.Do(buildRegistry)
	_, ok := registryIdx[name]
	return ok
}

// ByNameFor resolves an algorithm by name and checks it implements the
// given collective, so a Config cannot pair, say, a broadcast schedule
// with Collective: "AllToAll".
func ByNameFor(coll Collective, name string) (Algorithm, error) {
	a, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if got := CollectiveOf(a); got != coll {
		return nil, fmt.Errorf("core: algorithm %q implements %s, not %s", name, got, coll)
	}
	return a, nil
}
