// Package topology models the interconnection networks of the two machines
// the paper evaluates on: the Intel Paragon's 2-D mesh and the Cray T3D's
// 3-D torus. It provides node coordinate systems, deterministic
// dimension-ordered routing (the routing both machines used), directed link
// identifiers for the network contention model, and logical-rank indexing
// schemes (row-major and snake-like row-major, the order Br_Lin uses on a
// mesh).
//
// All routing here is minimal and deterministic: X-then-Y on the mesh,
// dimension order with shortest wraparound direction on the torus. That is
// the first-order model of the wormhole routers in both machines.
package topology

import (
	"fmt"
)

// Direction identifies one of the (at most six) outgoing directed channels
// of a router node. The mesh uses East/West/North/South; the torus uses all
// six. Self is a pseudo-direction for zero-hop (local) transfers.
type Direction int

// Directions of travel across a single link. On the 2-D mesh, "East" means
// increasing column and "South" increasing row; on the 3-D torus XPos means
// increasing x coordinate (with wraparound), and so on.
const (
	Self  Direction = iota
	East            // +col (mesh) / +x (torus)
	West            // -col / -x
	South           // +row / +y
	North           // -row / -y
	Up              // +z (torus only)
	Down            // -z (torus only)
)

// String returns the conventional compass/axis name of the direction.
func (d Direction) String() string {
	switch d {
	case Self:
		return "self"
	case East:
		return "east"
	case West:
		return "west"
	case South:
		return "south"
	case North:
		return "north"
	case Up:
		return "up"
	case Down:
		return "down"
	}
	return fmt.Sprintf("direction(%d)", int(d))
}

// Link is a directed channel from node From leaving in direction Dir.
// Two nodes connected by a physical wire therefore contribute two Links,
// one per direction, which matches the full-duplex channels of both the
// Paragon (200 MB/s per channel) and the T3D (300 MB/s per channel).
type Link struct {
	From int       // physical node the channel leaves
	Dir  Direction // direction of travel
}

// String renders the link as "node→dir" for traces and error messages.
func (l Link) String() string { return fmt.Sprintf("%d→%s", l.From, l.Dir) }

// Topology describes a physical interconnect: how many nodes it has, how
// they are wired, and the deterministic route a wormhole between two nodes
// takes. Implementations must be pure: AppendRoute must always append the
// same path for the same pair.
type Topology interface {
	// Name identifies the topology (for configs, traces, and tables).
	Name() string
	// Nodes returns the number of physical nodes.
	Nodes() int
	// Degree returns the maximum number of outgoing channels per node.
	Degree() int
	// AppendRoute appends to path the ordered directed links a message
	// from src to dst traverses and returns the extended slice; nothing
	// is appended when src == dst (local delivery). Appending lets the
	// network's pricing loop, which prices one route per simulated
	// message, reuse a single backing array instead of allocating per
	// call. It panics if src or dst is out of range; callers are
	// internal and out-of-range ranks indicate a bug, not an input error.
	AppendRoute(path []Link, src, dst int) []Link
	// Distance returns the number of hops between src and dst, equal to
	// the length of the route but cheaper to compute.
	Distance(src, dst int) int
}

func checkNode(t Topology, n int) {
	if n < 0 || n >= t.Nodes() {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.Nodes()))
	}
}

// Mesh2D is an r×c two-dimensional mesh without wraparound, the Intel
// Paragon's interconnect. Nodes are numbered in row-major order:
// node = row*Cols + col.
type Mesh2D struct {
	Rows, Cols int
}

// NewMesh2D returns an r×c mesh. It returns an error when either dimension
// is not positive; the paper's machines range from 2×2 to 16×16.
func NewMesh2D(rows, cols int) (*Mesh2D, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topology: invalid mesh dimensions %d×%d", rows, cols)
	}
	return &Mesh2D{Rows: rows, Cols: cols}, nil
}

// MustMesh2D is NewMesh2D that panics on invalid dimensions, for use with
// compile-time-constant dimensions in tests and experiment tables.
func MustMesh2D(rows, cols int) *Mesh2D {
	m, err := NewMesh2D(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Topology.
func (m *Mesh2D) Name() string { return fmt.Sprintf("mesh%dx%d", m.Rows, m.Cols) }

// Nodes implements Topology.
func (m *Mesh2D) Nodes() int { return m.Rows * m.Cols }

// Degree implements Topology. A mesh router has at most four mesh channels.
func (m *Mesh2D) Degree() int { return 4 }

// Node returns the node at (row, col).
func (m *Mesh2D) Node(row, col int) int {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic(fmt.Sprintf("topology: coordinate (%d,%d) outside %d×%d mesh", row, col, m.Rows, m.Cols))
	}
	return row*m.Cols + col
}

// AppendRoute implements Topology using XY (column-first)
// dimension-ordered routing: travel along the row to the destination
// column, then along the column. This is the e-cube routing the Paragon
// hardware used.
func (m *Mesh2D) AppendRoute(path []Link, src, dst int) []Link {
	checkNode(m, src)
	checkNode(m, dst)
	if src == dst {
		return path
	}
	sr, sc := src/m.Cols, src%m.Cols
	dr, dc := dst/m.Cols, dst%m.Cols
	r, c := sr, sc
	for c != dc {
		dir := East
		step := 1
		if dc < c {
			dir = West
			step = -1
		}
		path = append(path, Link{From: r*m.Cols + c, Dir: dir})
		c += step
	}
	for r != dr {
		dir := South
		step := 1
		if dr < r {
			dir = North
			step = -1
		}
		path = append(path, Link{From: r*m.Cols + c, Dir: dir})
		r += step
	}
	return path
}

// Distance implements Topology (Manhattan distance).
func (m *Mesh2D) Distance(src, dst int) int {
	checkNode(m, src)
	checkNode(m, dst)
	sr, sc := src/m.Cols, src%m.Cols
	dr, dc := dst/m.Cols, dst%m.Cols
	return abs(dr-sr) + abs(dc-sc)
}

// Torus3D is an X×Y×Z three-dimensional torus (wraparound in every
// dimension), the Cray T3D's interconnect. Nodes are numbered
// node = (z*Y + y)*X + x.
type Torus3D struct {
	X, Y, Z int
}

// NewTorus3D returns an x×y×z torus. Dimensions must be positive.
func NewTorus3D(x, y, z int) (*Torus3D, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return nil, fmt.Errorf("topology: invalid torus dimensions %d×%d×%d", x, y, z)
	}
	return &Torus3D{X: x, Y: y, Z: z}, nil
}

// MustTorus3D is NewTorus3D that panics on invalid dimensions.
func MustTorus3D(x, y, z int) *Torus3D {
	t, err := NewTorus3D(x, y, z)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Topology.
func (t *Torus3D) Name() string { return fmt.Sprintf("torus%dx%dx%d", t.X, t.Y, t.Z) }

// Nodes implements Topology.
func (t *Torus3D) Nodes() int { return t.X * t.Y * t.Z }

// Degree implements Topology. A torus router has six channels (±x, ±y, ±z).
func (t *Torus3D) Degree() int { return 6 }

// Coord returns the (x, y, z) coordinates of a node.
func (t *Torus3D) Coord(node int) (x, y, z int) {
	checkNode(t, node)
	x = node % t.X
	y = (node / t.X) % t.Y
	z = node / (t.X * t.Y)
	return x, y, z
}

// Node returns the node at (x, y, z).
func (t *Torus3D) Node(x, y, z int) int {
	if x < 0 || x >= t.X || y < 0 || y >= t.Y || z < 0 || z >= t.Z {
		panic(fmt.Sprintf("topology: coordinate (%d,%d,%d) outside %d×%d×%d torus", x, y, z, t.X, t.Y, t.Z))
	}
	return (z*t.Y+y)*t.X + x
}

// torusSteps returns the signed number of steps from a to b along a ring of
// the given size, taking the shorter wraparound direction (ties broken
// toward the positive direction, matching deterministic hardware routing).
func torusSteps(a, b, size int) int {
	d := (b - a + size) % size
	if d*2 <= size {
		return d
	}
	return d - size
}

// AppendRoute implements Topology using dimension-ordered routing (x,
// then y, then z), each dimension taking the shorter wraparound direction.
func (t *Torus3D) AppendRoute(path []Link, src, dst int) []Link {
	checkNode(t, src)
	checkNode(t, dst)
	if src == dst {
		return path
	}
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
	walk := func(cur *int, size int, target int, pos, neg Direction, at func() int) {
		steps := torusSteps(*cur, target, size)
		dir, inc := pos, 1
		if steps < 0 {
			dir, inc, steps = neg, -1, -steps
		}
		for i := 0; i < steps; i++ {
			path = append(path, Link{From: at(), Dir: dir})
			*cur = ((*cur + inc) + size) % size
		}
	}
	x, y, z := sx, sy, sz
	walk(&x, t.X, dx, East, West, func() int { return t.Node(x, y, z) })
	walk(&y, t.Y, dy, South, North, func() int { return t.Node(x, y, z) })
	walk(&z, t.Z, dz, Up, Down, func() int { return t.Node(x, y, z) })
	return path
}

// Distance implements Topology (wraparound Manhattan distance).
func (t *Torus3D) Distance(src, dst int) int {
	checkNode(t, src)
	checkNode(t, dst)
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
	return abs(torusSteps(sx, dx, t.X)) + abs(torusSteps(sy, dy, t.Y)) + abs(torusSteps(sz, dz, t.Z))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
