package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
)

// drainFilings empties the free list of filings and returns what it held.
func drainFilings() []*filing {
	var held []*filing
	for {
		f, ok := filings.Get()
		if !ok {
			return held
		}
		held = append(held, f)
	}
}

// checkGivesBack fails t unless run gives back every filing it takes,
// each exactly once: the free list is stocked with three known filings,
// more than any script takes, and must hold each of them once afterwards
// — one not given back is missing, one given back twice is there twice.
// The list is left holding what run gave back, for the next compile.
func checkGivesBack(t *testing.T, what string, run func()) {
	t.Helper()
	// The list keeps up to GOMAXPROCS filings: room for the stock and a
	// duplicate.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	drainFilings()
	stock := []*filing{new(filing), new(filing), new(filing)}
	for _, f := range stock {
		filings.Put(f)
	}
	run()
	back := drainFilings()
	for _, f := range stock {
		if n := countOf(back, f); n != 1 {
			t.Errorf("%s gives a filing back %d times", what, n)
		}
	}
	if len(back) != len(stock) {
		t.Errorf("%s leaves %d filings idle, %d were", what, len(back), len(stock))
	}
	for i := len(back) - 1; i >= 0; i-- {
		filings.Put(back[i])
	}
}

func countOf(fs []*filing, f *filing) int {
	n := 0
	for _, g := range fs {
		if g == f {
			n++
		}
	}
	return n
}

// silent is a communicator on which every send vanishes and every
// receive is empty: enough to run one rank of a script on its own.
type silent struct{ rank, size int }

func (c silent) Rank() int            { return c.rank }
func (c silent) Size() int            { return c.size }
func (silent) Send(int, comm.Message) {}
func (silent) Recv(int) comm.Message  { return comm.Message{} }
func (silent) Barrier()               {}

// TestRecycledFilingsCompileAsFresh compiles every sectioned registry
// entry and every wrapper around one on the filings the run before gave
// back — 16×16, then 2×3, 10×10 and 16×16 again, so the slab and the
// scratch shrink and grow — and holds each program, op for op, to the
// one fresh filings compile. Compile and Script.Run each give back
// every filing the script took exactly once: through then (Repos_*,
// WithDiscovery, ReposAdaptive) and both halves of a part script.
func TestRecycledFilingsCompileAsFresh(t *testing.T) {
	var algs []Algorithm
	for _, a := range Registry() {
		if s, ok := a.(schedule); ok && s.sections != nil || strings.HasPrefix(a.Name(), "Part_") || strings.HasPrefix(a.Name(), "Repos_") {
			algs = append(algs, a)
		}
	}
	algs = append(algs, WithDiscovery(BrLin()), WithDiscovery(PartXYDim()),
		ReposAdaptive(BrXYSource(), 0.1), ReposAdaptive(BrLin(), -1))
	meshes := [][2]int{{16, 16}, {2, 3}, {10, 10}, {16, 16}}
	for _, alg := range algs {
		for _, d := range []dist.Distribution{dist.Equal(), dist.Cross()} {
			t.Run(alg.Name()+"/"+d.Name(), func(t *testing.T) {
				for _, m := range meshes {
					spec := makeSpec(t, d, m[0], m[1], max(2, m[0]*m[1]/4))
					label := fmt.Sprintf("%dx%d", m[0], m[1])
					recycled, err := Compile(alg, spec)
					if err != nil {
						t.Fatal(err)
					}
					drainFilings()
					fresh, err := Compile(alg, spec)
					if err != nil {
						t.Fatal(err)
					}
					if !sameProgram(recycled, fresh) {
						t.Fatalf("%s: the program compiled on recycled filings is not the one a fresh filing compiles", label)
					}
					checkGivesBack(t, label+" Compile", func() {
						if _, err := scriptOf(alg, spec).Compile(spec.P()); err != nil {
							t.Fatal(err)
						}
					})
					checkGivesBack(t, label+" Script.Run", func() {
						scriptOf(alg, spec).Run(silent{rank: spec.P() - 1, size: spec.P()}, comm.Message{})
					})
				}
			})
		}
	}
}
