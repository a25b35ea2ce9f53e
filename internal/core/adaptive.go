package core

import (
	"repro/internal/comm"
)

// The paper observes that repositioning costs 1–2 ms even when the input
// distribution is already ideal, and notes: "Our current implementations
// do not check whether the initial distribution is close to an ideal
// distribution and always reposition." ReposAdaptive supplies that check.
//
// The decision is made from the deterministic holder-growth replay of the
// halving pattern (the same bookkeeping every processor already performs):
// the spec's growth efficiency — how close the holder count comes to
// doubling every iteration — is compared between the initial distribution
// and the algorithm's ideal target. Every processor computes the identical
// decision from the spec alone, so no extra communication is needed.

// ReposAdaptive returns a repositioning algorithm that first checks
// whether the initial distribution is already close to ideal and skips
// the permutation unless repositioning would improve the halving growth
// efficiency by strictly more than margin (e.g. 0.1); a gain exactly
// equal to the margin still skips.
func ReposAdaptive(inner Algorithm, margin float64) Algorithm {
	return schedule{name: "ReposAdaptive_" + inner.Name(), coll: Broadcast, declared: discovers(inner), write: func(spec Spec) comm.Script {
		ideal := idealSources(inner, spec)
		idealSpec := Spec{Rows: spec.Rows, Cols: spec.Cols, Sources: ideal, Indexing: spec.Indexing}
		if gain := growthEfficiency(idealSpec) - growthEfficiency(spec); gain > margin {
			return reposition(inner, spec, ideal)
		}
		// Close enough to ideal: skip the permutation.
		return scriptOf(inner, spec)
	}}
}

// growthEfficiency replays the halving pattern over the given source
// positions and scores how close the holder counts come to doubling each
// iteration (1.0 = perfect doubling until saturation). It is the
// decision metric of ReposAdaptive. The replay is in rank space (row-major):
// the indexing detail matters less for the decision than the pairing
// structure, and using one fixed order keeps the decision identical for
// every inner algorithm.
func growthEfficiency(spec Spec) float64 {
	p := spec.P()
	cur := spec.S()
	if cur >= p {
		return 1
	}
	rankOrder := sectioning{k: 1, passes: []pass{{n: p, at: func(_, pos int) int { return pos }}}}
	gained := make([]int, rankOrder.levels())
	// A processor becomes a holder at the level of its first receive.
	seen := spec.holderFlags()
	rankOrder.stream(spec, func(st Step) {
		if st.Recv && !seen[st.Rank] {
			seen[st.Rank] = true
			gained[st.Level]++
		}
	})
	achieved, ideal := 0.0, 0.0
	for _, g := range gained {
		if cur < p {
			ideal += float64(min(2*cur, p) - cur)
			achieved += float64(g)
		}
		cur += g
	}
	if ideal == 0 {
		return 1
	}
	return min(achieved/ideal, 1)
}
