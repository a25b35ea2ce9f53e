package core

import (
	"fmt"
	"strconv"
)

// BrKPort returns Algorithm Br_kport<k>, the k-ported generalization of
// Br_Lin's recursive halving. Where Br_Lin splits every segment in two
// and pairs positions across the halves, Br_kport splits into k+1
// subsegments and exchanges within groups of up to k+1 evenly strided
// positions, so every holder sends to up to k destinations per level —
// traffic a k-ported machine (the paper's multi-channel routers) drives
// concurrently instead of serially. The level count drops from ⌈log₂ p⌉
// to ~⌈log_{k+1} p⌉ at the price of k sends per holder per level: a win
// exactly when the node has k ports. Every engine here, the simulator
// and its cost model included, issues a holder's k sends one after the
// other, so the schedule is run and priced as on a one-ported node.
//
// k must be at least 1; k=1 is pairwise sectioning like Br_Lin (same
// level count, same odd rule).
func BrKPort(k int) Algorithm {
	if k < 1 {
		panic(fmt.Sprintf("core: BrKPort with %d ports", k))
	}
	return sectioned("Br_kport"+strconv.Itoa(k), func(spec Spec) sectioning { return linear(k, "ksection", spec) })
}
