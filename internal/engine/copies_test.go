package engine

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/topology"
)

// memory is the smallest transport: every message takes the core's
// copying local path.
type memory struct{}

func (memory) Deliver(r *Run, src, dst int, m comm.Message) error {
	r.Local(src, dst, m)
	return nil
}
func (memory) Begin()       {}
func (memory) Abort()       {}
func (memory) Close() error { return nil }

// TestKeptBundleReadsAsPoison: on a machine that reclaims its copies, a
// bundle is valid until the next run arms. Every run's bundles pass
// core.Collective.Check inside the run; a bundle kept past its run, with
// the reclaimed slab poisoned, fails the same check by rank, origin and
// byte instead of passing on whatever bytes the slab holds.
func TestKeptBundleReadsAsPoison(t *testing.T) {
	const rows, cols, size = 2, 3, 40
	m := New("memory", rows*cols, 0, rows*cols, []int{0}, memory{})
	defer m.Close()
	m.ReclaimCopies()
	m.copies.poison = 0xdb
	spec := core.Spec{Rows: rows, Cols: cols, Sources: []int{1, 4}, Indexing: topology.SnakeRowMajor}
	bound := core.Bind(core.BrLin(), spec)
	coll := core.CollectiveOf(bound)
	sizes := func(int) int { return size }
	kept := make([]comm.Message, spec.P())
	run := func(keep bool) {
		t.Helper()
		_, err := m.Run(Options{}, func(pr *Proc) {
			rank := pr.Rank()
			out := bound.Run(pr, spec, core.InitialFor(coll, spec, rank, func(r int) []byte { return coll.Payload(spec.P(), r, size) }))
			if err := coll.Check(spec, sizes, rank, out); err != nil {
				t.Errorf("inside its run: %v", err)
			}
			if keep {
				kept[rank] = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The first run outgrows the empty slabs and the second is carved
	// from them; its bundles are kept past it, and an empty run reclaims
	// the slabs.
	run(false)
	run(true)
	if _, err := m.Run(Options{}, func(*Proc) {}); err != nil {
		t.Fatal(err)
	}
	for rank, out := range kept {
		// Every rank holds a part from the other source, received as a copy.
		if err := coll.Check(spec, sizes, rank, out); err == nil || !strings.Contains(err.Error(), "is 0xdb") {
			t.Errorf("rank %d's kept bundle: Check = %v, want a byte that is the poison 0xdb", rank, err)
		}
	}
}
