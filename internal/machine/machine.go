// Package machine assembles the simulated MPPs the experiments run on: a
// physical topology, a logical→physical placement, a network cost
// configuration, and the logical r×c mesh the algorithms see.
//
// Three machine families reproduce the paper's platforms:
//
//   - Paragon (NX): 2-D mesh, identity placement (Paragon applications own
//     a contiguous submesh), NX cost profile;
//   - ParagonMPI: same mesh, MPI cost profile (+4% software overhead, the
//     paper's measured 2–5% loss);
//   - T3D (MPI): 3-D torus with near-cubic dimensions, fixed snake
//     placement (the user cannot control the virtual→physical mapping on
//     the T3D; T3DRandom scatters it fully), MPI cost profile with T3D
//     bandwidth.
//
// HypercubeNX adds a binary hypercube with Paragon costs as an extension
// machine for topology ablations.
package machine

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/topology"
)

// Machine is one simulated platform instance.
type Machine struct {
	// Name identifies the machine in tables ("paragon-nx-10x10").
	Name string
	// Rows, Cols are the logical mesh dimensions the algorithms use.
	Rows, Cols int
	// Topo is the physical interconnect.
	Topo topology.Topology
	// Place maps logical ranks to physical nodes.
	Place *topology.Placement
	// Cfg is the cost model.
	Cfg network.Config
}

// P returns the processor count.
func (m *Machine) P() int { return m.Rows * m.Cols }

// NewNetwork builds a contention network for one run (network.New: the
// tables of a released network when one is idle).
func (m *Machine) NewNetwork() (*network.Network, error) {
	return network.New(m.Topo, m.Place, m.Cfg)
}

// Paragon returns an r×c Intel Paragon under the NX library.
func Paragon(rows, cols int) *Machine {
	return paragonWith(rows, cols, network.ParagonNX())
}

// ParagonMPI returns an r×c Intel Paragon under the MPI environment.
func ParagonMPI(rows, cols int) *Machine {
	return paragonWith(rows, cols, network.ParagonMPI())
}

func paragonWith(rows, cols int, cfg network.Config) *Machine {
	topo := topology.MustMesh2D(rows, cols)
	return &Machine{
		Name:  fmt.Sprintf("%s-%dx%d", cfg.Name, rows, cols),
		Rows:  rows,
		Cols:  cols,
		Topo:  topo,
		Place: topology.IdentityPlacement(topo.Nodes()),
		Cfg:   cfg,
	}
}

// T3D returns a p-processor Cray T3D under MPI. The physical torus gets
// near-cubic dimensions; the logical mesh the distributions use is the
// near-square factorization of p. The virtual→physical mapping is the
// system's fixed boustrophedon (snake) assignment: the user cannot control it
// (the paper's reason for skipping topology-tailored algorithms there),
// but it is not a random scatter — which is why the paper still observes
// distribution effects on the T3D (Figures 11–12). T3DRandom provides the
// fully scattered ablation.
func T3D(p int) *Machine {
	x, y, z := TorusDims(p)
	topo := topology.MustTorus3D(x, y, z)
	r, c := topology.NearSquare(p)
	return &Machine{
		Name:  fmt.Sprintf("t3d-mpi-%d", p),
		Rows:  r,
		Cols:  c,
		Topo:  topo,
		Place: topology.Snake3DPlacement(topo),
		Cfg:   network.T3DMPI(),
	}
}

// T3DRandom is the T3D with a seeded fully random virtual→physical
// placement, the worst-case reading of "the mapping cannot be controlled".
func T3DRandom(p int, seed int64) *Machine {
	m := T3D(p)
	m.Name = fmt.Sprintf("t3d-mpi-%d-rand%d", p, seed)
	m.Place = topology.RandomPlacement(p, seed)
	return m
}

// HypercubeNX returns a 2^dim-processor binary hypercube with exactly the
// Paragon's cost parameters — only the wiring differs — so the topology
// ablation isolates the interconnect's contribution (extension machine;
// the paper itself evaluates only the Paragon and the T3D). Br_Lin's
// halving partners are single hops here, the dimension-exchange pattern
// of the hypercube literature the paper cites.
func HypercubeNX(dim int) *Machine {
	topo := topology.MustHypercube(dim)
	cfg := network.ParagonNX()
	cfg.Name = "hcube-nx"
	r, c := topology.NearSquare(topo.Nodes())
	return &Machine{
		Name:  fmt.Sprintf("%s-%d", cfg.Name, topo.Nodes()),
		Rows:  r,
		Cols:  c,
		Topo:  topo,
		Place: topology.IdentityPlacement(topo.Nodes()),
		Cfg:   cfg,
	}
}

// TorusDims factors p into torus dimensions x ≤ y ≤ z minimizing the
// spread z−x (near-cubic, like the T3D's physical configurations). It
// delegates to topology.TorusDims, the canonical decomposition the
// torus-aware schedules share.
func TorusDims(p int) (x, y, z int) { return topology.TorusDims(p) }
