package topology

import (
	"fmt"
	"math/rand"
)

// Indexing maps logical processor ranks (what the algorithms see) to
// positions on a mesh. Br_Lin treats the machine as a linear array; on a
// mesh the paper uses snake-like row-major indexing so that consecutive
// logical ranks are physically adjacent.
type Indexing int

// Supported logical-rank orders on a 2-D mesh.
const (
	// RowMajor numbers processors left-to-right in every row.
	RowMajor Indexing = iota
	// SnakeRowMajor numbers processors left-to-right in even rows and
	// right-to-left in odd rows, so rank i and rank i+1 are always mesh
	// neighbours. This is the order Br_Lin uses (Section 2 of the paper).
	SnakeRowMajor
)

// String names the indexing for configs and tables.
func (ix Indexing) String() string {
	switch ix {
	case RowMajor:
		return "row-major"
	case SnakeRowMajor:
		return "snake"
	}
	return fmt.Sprintf("indexing(%d)", int(ix))
}

// RankToNode converts a logical rank to a row-major mesh node id under the
// indexing scheme.
func (ix Indexing) RankToNode(m *Mesh2D, rank int) int {
	if rank < 0 || rank >= m.Nodes() {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, m.Nodes()))
	}
	switch ix {
	case RowMajor:
		return rank
	case SnakeRowMajor:
		row := rank / m.Cols
		col := rank % m.Cols
		if row%2 == 1 {
			col = m.Cols - 1 - col
		}
		return row*m.Cols + col
	}
	panic(fmt.Sprintf("topology: unknown indexing %d", int(ix)))
}

// Placement maps logical ranks to physical nodes. The Paragon lets an
// application own a contiguous submesh (identity placement); on the T3D the
// mapping of virtual to physical processors is outside user control, which
// the paper calls out as the reason topology-aware algorithms were not run
// there. RandomPlacement models that effect deterministically from a seed.
type Placement struct {
	rankToNode []int
}

// IdentityPlacement returns the placement where logical rank i runs on
// physical node i.
func IdentityPlacement(n int) *Placement {
	p := &Placement{rankToNode: make([]int, n)}
	for i := 0; i < n; i++ {
		p.rankToNode[i] = i
	}
	return p
}

// RandomPlacement returns a seeded pseudo-random permutation placement of n
// ranks, modelling the T3D's uncontrollable virtual→physical mapping. The
// same seed always yields the same placement, keeping experiments
// reproducible.
func RandomPlacement(n int, seed int64) *Placement {
	return &Placement{rankToNode: rand.New(rand.NewSource(seed)).Perm(n)}
}

// Size returns the number of placed ranks.
func (p *Placement) Size() int { return len(p.rankToNode) }

// Node returns the physical node a logical rank runs on.
func (p *Placement) Node(rank int) int {
	if rank < 0 || rank >= len(p.rankToNode) {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, len(p.rankToNode)))
	}
	return p.rankToNode[rank]
}

// Snake3DPlacement places consecutive logical ranks along a boustrophedon
// walk of the torus: x runs forward then backward as y advances, y runs
// forward then backward as z advances. Consecutive ranks are always
// physical neighbours (as in a space-filling PE numbering), while strided
// rank patterns do not collapse onto a single plane — the behaviour of the
// T3D's fixed, user-uncontrollable virtual→physical numbering.
func Snake3DPlacement(t *Torus3D) *Placement {
	n := t.Nodes()
	p := &Placement{rankToNode: make([]int, n)}
	for r := 0; r < n; r++ {
		x := r % t.X
		y := (r / t.X) % t.Y
		z := r / (t.X * t.Y)
		if y%2 == 1 {
			x = t.X - 1 - x
		}
		if z%2 == 1 {
			y = t.Y - 1 - y
		}
		p.rankToNode[r] = t.Node(x, y, z)
	}
	return p
}

// Factorizations returns every r×c factorization of p with r ≤ c, in
// increasing r. Figure 8 sweeps these for p = 120: 1×120, 2×60, 3×40,
// 4×30, 5×24, 6×20, 8×15, 10×12.
func Factorizations(p int) [][2]int {
	if p <= 0 {
		return nil
	}
	var out [][2]int
	for r := 1; r*r <= p; r++ {
		if p%r == 0 {
			out = append(out, [2]int{r, p / r})
		}
	}
	return out
}

// NearSquare returns the factorization r×c of p with r ≤ c and r as close
// to √p as possible. Used when an experiment asks for "a p-processor
// Paragon" without pinning the dimensions.
func NearSquare(p int) (r, c int) {
	f := Factorizations(p)
	if len(f) == 0 {
		return 1, p
	}
	best := f[len(f)-1]
	return best[0], best[1]
}

// TorusDims factors p into torus dimensions x ≤ y ≤ z minimizing the
// spread z−x (near-cubic, like the T3D's physical configurations). It is
// the canonical k-ary n-dimensional decomposition shared by the machine
// constructors and the torus-aware schedules (the Jung–Sakho all-to-all
// decomposes the rank space along exactly these dimensions).
func TorusDims(p int) (x, y, z int) {
	if p <= 0 {
		panic(fmt.Sprintf("topology: non-positive processor count %d", p))
	}
	best := [3]int{1, 1, p}
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		rest := p / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if c-a < best[2]-best[0] {
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}
