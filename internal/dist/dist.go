// Package dist implements the source-processor distributions of Section 4
// of the paper — Row R(s), Column C(s), Equal E(s), Right/Left Diagonal
// Dr(s)/Dl(s), Band B(s), Cross Cr(s), Square block Sq(s) — plus a seeded
// Random distribution and the ideal-distribution generators used by the
// repositioning algorithms of Section 3.
//
// A distribution places s sources on a logical r×c mesh (r ≤ c in the
// paper's definitions; the implementations here accept any r, c ≥ 1) and
// returns their logical ranks in row-major order (rank = row·c + col). On
// the T3D model the same logical mesh is used; its mapping onto the torus
// is the placement's concern.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Distribution places s source processors on an r×c logical mesh.
type Distribution interface {
	// Name is the paper's notation for the distribution ("R", "Dr", ...).
	Name() string
	// Sources returns the sorted row-major ranks of the s sources.
	// It fails when s is not in [1, r·c] or the mesh is degenerate.
	Sources(r, c, s int) ([]int, error)
}

// check validates the common preconditions.
func check(name string, r, c, s int) error {
	if r <= 0 || c <= 0 {
		return fmt.Errorf("dist: %s: invalid mesh %d×%d", name, r, c)
	}
	if s < 1 || s > r*c {
		return fmt.Errorf("dist: %s: source count %d outside [1,%d]", name, s, r*c)
	}
	return nil
}

// placer collects cells, ignoring duplicates, until s cells are placed.
type placer struct {
	c, s, n int
	placed  []bool // by rank
}

func newPlacer(r, c, s int) *placer { return &placer{c: c, s: s, placed: make([]bool, r*c)} }

// full reports whether s sources have been placed.
func (p *placer) full() bool { return p.n >= p.s }

// add places a source at (row, col) if the cell is free; it reports
// whether the placer is full afterwards.
func (p *placer) add(row, col int) bool {
	if rank := row*p.c + col; !p.placed[rank] {
		p.placed[rank], p.n = true, p.n+1
	}
	return p.full()
}

func (p *placer) sorted() []int {
	out := make([]int, 0, p.n)
	for rank, ok := range p.placed {
		if ok {
			out = append(out, rank)
		}
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// spread returns k indices evenly spaced over [0, n): floor(j·n/k).
// The paper's "evenly spaced" rows/columns/diagonals.
func spread(n, k int) []int {
	out := make([]int, k)
	for j := 0; j < k; j++ {
		out[j] = j * n / k
	}
	return out
}

// row is R(s): i = ceil(s/c) evenly spaced rows; every chosen row except
// the last is completely filled.
type row struct{}

// Row returns the row distribution R(s).
func Row() Distribution { return row{} }

func (row) Name() string { return "R" }

func (row) Sources(r, c, s int) ([]int, error) {
	if err := check("R", r, c, s); err != nil {
		return nil, err
	}
	i := ceilDiv(s, c)
	p := newPlacer(r, c, s)
	for _, rr := range spread(r, i) {
		for col := 0; col < c; col++ {
			if p.add(rr, col) {
				return p.sorted(), nil
			}
		}
	}
	return p.sorted(), nil
}

// column is C(s): i = ceil(s/r) evenly spaced columns, filled top-down.
type column struct{}

// Column returns the column distribution C(s).
func Column() Distribution { return column{} }

func (column) Name() string { return "C" }

func (column) Sources(r, c, s int) ([]int, error) {
	if err := check("C", r, c, s); err != nil {
		return nil, err
	}
	i := ceilDiv(s, r)
	p := newPlacer(r, c, s)
	for _, cc := range spread(c, i) {
		for rr := 0; rr < r; rr++ {
			if p.add(rr, cc) {
				return p.sorted(), nil
			}
		}
	}
	return p.sorted(), nil
}

// equal is E(s): processor (0,0) is a source and the k-th source sits at
// row-major position floor(k·p/s), the "every ⌈p/s⌉-th or ⌊p/s⌋-th
// processor" rule of the paper.
type equal struct{}

// Equal returns the equal distribution E(s).
func Equal() Distribution { return equal{} }

func (equal) Name() string { return "E" }

func (equal) Sources(r, c, s int) ([]int, error) {
	if err := check("E", r, c, s); err != nil {
		return nil, err
	}
	p := r * c
	out := make([]int, s)
	for k := 0; k < s; k++ {
		out[k] = k * p / s
	}
	return out, nil
}

// diag implements Dr(s) and Dl(s). A right diagonal with offset o is the r
// cells (k, (o+k) mod c); a left diagonal is (k, (o−k) mod c). The first
// right diagonal (o=0) runs from (0,0) to (r−1,r−1); the first left
// diagonal (o=c−1) runs from (0,c−1) to (r−1,c−r). Diagonals wrap around,
// per the paper's "assume wraparound connections when placing sources".
type diag struct{ left bool }

// DiagRight returns the right diagonal distribution Dr(s).
func DiagRight() Distribution { return diag{left: false} }

// DiagLeft returns the left diagonal distribution Dl(s).
func DiagLeft() Distribution { return diag{left: true} }

func (d diag) Name() string {
	if d.left {
		return "Dl"
	}
	return "Dr"
}

func (d diag) Sources(r, c, s int) ([]int, error) {
	if err := check(d.Name(), r, c, s); err != nil {
		return nil, err
	}
	i := ceilDiv(s, r)
	p := newPlacer(r, c, s)
	for _, o := range spread(c, i) {
		for k := 0; k < r; k++ {
			col := (o + k) % c
			if d.left {
				// k can exceed c−1+o on tall meshes; normalize the
				// wraparound to a non-negative column.
				col = ((c-1-k+o)%c + c) % c
			}
			if p.add(k, col) {
				return p.sorted(), nil
			}
		}
	}
	return p.sorted(), nil
}

// band is B(s): b = ceil(c/r) evenly distributed bands of adjacent right
// diagonals, each band of width ceil(s/(b·r)).
type band struct{}

// Band returns the band distribution B(s).
func Band() Distribution { return band{} }

func (band) Name() string { return "B" }

func (band) Sources(r, c, s int) ([]int, error) {
	if err := check("B", r, c, s); err != nil {
		return nil, err
	}
	b := ceilDiv(c, r)
	w := ceilDiv(s, b*r)
	p := newPlacer(r, c, s)
	for _, o := range spread(c, b) {
		for dw := 0; dw < w; dw++ {
			for k := 0; k < r; k++ {
				if p.add(k, (o+dw+k)%c) {
					return p.sorted(), nil
				}
			}
		}
	}
	// Width rounding can leave stragglers on huge s; widen the bands
	// until everything is placed (keeps Sources total-correct for any s).
	for dw := w; !p.full(); dw++ {
		for _, o := range spread(c, b) {
			for k := 0; k < r; k++ {
				if p.add(k, (o+dw+k)%c) {
					return p.sorted(), nil
				}
			}
		}
	}
	return p.sorted(), nil
}

// cross is Cr(s): the union of a row and a column distribution with
// roughly s/2 sources each. ceil(s/2c) evenly spaced full rows are placed
// first, then ceil(s/2r) evenly spaced columns are filled top-down
// (skipping cells that are already sources) until s sources exist. For
// Cr(30) on 10×10 this yields exactly the paper's Figure 1: two full rows
// and two columns, the second column holding only 4 sources.
type cross struct{}

// Cross returns the cross distribution Cr(s).
func Cross() Distribution { return cross{} }

func (cross) Name() string { return "Cr" }

func (cross) Sources(r, c, s int) ([]int, error) {
	if err := check("Cr", r, c, s); err != nil {
		return nil, err
	}
	p := newPlacer(r, c, s)
	nr := ceilDiv(s, 2*c)
	for _, rr := range spread(r, nr) {
		for col := 0; col < c; col++ {
			if p.add(rr, col) {
				return p.sorted(), nil
			}
		}
	}
	nc := ceilDiv(s, 2*r)
	for !p.full() {
		for _, cc := range spread(c, nc) {
			for rr := 0; rr < r; rr++ {
				if p.add(rr, cc) {
					return p.sorted(), nil
				}
			}
		}
		// All chosen columns exhausted without reaching s (tiny meshes):
		// widen with one more column.
		nc++
		if nc > c {
			// Degenerate; fall back to filling row-major.
			for rank := 0; !p.full(); rank++ {
				p.add(rank/c, rank%c)
			}
		}
	}
	return p.sorted(), nil
}

// square is Sq(s): the sources form a ⌈√s⌉×⌈√s⌉ block anchored at (0,0),
// filled column by column. When √s exceeds the row count the block is
// clipped to r rows and widened accordingly.
type square struct{}

// Square returns the square block distribution Sq(s).
func Square() Distribution { return square{} }

func (square) Name() string { return "Sq" }

func (square) Sources(r, c, s int) ([]int, error) {
	if err := check("Sq", r, c, s); err != nil {
		return nil, err
	}
	q := int(math.Ceil(math.Sqrt(float64(s))))
	h := q
	if h > r {
		h = r
	}
	// If the clipped block would be wider than the mesh, grow it downward
	// instead (s ≤ r·c guarantees ceil(s/c) ≤ r).
	if ceilDiv(s, h) > c {
		h = ceilDiv(s, c)
	}
	p := newPlacer(r, c, s)
	for col := 0; !p.full(); col++ {
		if col >= c {
			return nil, fmt.Errorf("dist: Sq: block overflow placing %d sources on %d×%d", s, r, c)
		}
		for k := 0; k < h; k++ {
			if p.add(k, col) {
				return p.sorted(), nil
			}
		}
	}
	return p.sorted(), nil
}

// random places s sources uniformly at random (seeded, deterministic).
type random struct{ seed int64 }

// Random returns a uniform random distribution with the given seed; the
// paper conjectures random placements behave like the equal distribution
// on the T3D.
func Random(seed int64) Distribution { return random{seed: seed} }

func (d random) Name() string { return fmt.Sprintf("Rand%d", d.seed) }

func (d random) Sources(r, c, s int) ([]int, error) {
	if err := check(d.Name(), r, c, s); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(d.seed))
	perm := rng.Perm(r * c)
	out := make([]int, s)
	copy(out, perm[:s])
	sort.Ints(out)
	return out, nil
}

// All returns the paper's eight named distributions in the order Figure 6
// sweeps them, for experiment tables.
func All() []Distribution {
	return []Distribution{Row(), Column(), Equal(), DiagRight(), DiagLeft(), Band(), Cross(), Square()}
}

// ByName returns the distribution with the paper's notation name
// (case-sensitive: "R", "C", "E", "Dr", "Dl", "B", "Cr", "Sq").
func ByName(name string) (Distribution, error) {
	for _, d := range All() {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("dist: unknown distribution %q", name)
}

// Render draws the distribution on an r×c character grid ('#' source,
// '.' other), the format of the paper's Figure 1; sources are ranks of
// that mesh.
func Render(r, c int, sources []int) string {
	set := make([]bool, r*c)
	for _, x := range sources {
		set[x] = true
	}
	var b strings.Builder
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if set[i*c+j] {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
