// Package network provides the timing model for the simulated machines: a
// contention-aware link model over a topology, plus calibrated machine
// configurations standing in for the Intel Paragon (NX and MPI) and the
// Cray T3D (MPI).
//
// The model is the standard first-order description of a 1990s
// wormhole-routed MPP. A message transfer from node a to node b
//
//   - waits until every directed link on the deterministic route is free
//     (a wormhole holds its whole path for the duration of the transfer),
//   - then occupies the path for startup + hops·hopLatency + bytes/bandwidth,
//   - and arrives at b at the instant the path is released.
//
// Software costs (per-send and per-receive overhead, per-byte buffer copy,
// per-byte message combining) are charged by the sim runtime on the
// processor clocks, not here; this package prices only the wire.
package network

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/topology"
)

// Time is a point in virtual time, in nanoseconds since the start of a run.
type Time int64

// Duration helpers for converting to the standard library's units.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Milliseconds reports the time in ms as a float, matching the paper's axes.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Model selects how a transfer claims the links of its route.
type Model int

const (
	// Wormhole reserves the entire route for the duration of the
	// transfer, the switching technique of both the Paragon and the T3D.
	Wormhole Model = iota
	// StoreAndForward forwards the full message hop by hop, claiming one
	// link at a time. Provided as an ablation of the switching model.
	StoreAndForward
)

// String names the switching model.
func (m Model) String() string {
	switch m {
	case Wormhole:
		return "wormhole"
	case StoreAndForward:
		return "store-and-forward"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Config holds the calibrated cost parameters of one machine/library pair.
// All times are in nanoseconds, bandwidth in bytes per second.
type Config struct {
	// Name identifies the machine/library pair in tables ("paragon-nx").
	Name string
	// SendOverhead is the fixed software cost a processor pays to issue
	// one send (NX csend / MPI_Send entry, buffer registration, ...).
	SendOverhead Time
	// RecvOverhead is the fixed software cost to complete one receive.
	RecvOverhead Time
	// ByteCopyNS is the per-byte cost (in ns, may be fractional) of the
	// software copy between user buffer and network interface, charged
	// on both the sending and the receiving processor.
	ByteCopyNS float64
	// CombineByteNS is the per-byte cost of merging a received message
	// bundle into the processor's accumulated broadcast buffer. Only the
	// message-combining algorithms (Br_*) pay it; it is the "cost of
	// combining messages" the paper blames for Br_Lin's T3D performance.
	CombineByteNS float64
	// NetStartup is the network launch latency of one transfer.
	NetStartup Time
	// HopLatency is the router delay per hop of the route.
	HopLatency Time
	// LinkBandwidth is the sustained bandwidth of one directed channel,
	// in bytes per second.
	LinkBandwidth float64
	// Switching selects wormhole or store-and-forward pricing.
	Switching Model
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.LinkBandwidth <= 0 {
		return fmt.Errorf("network: config %q: non-positive bandwidth %v", c.Name, c.LinkBandwidth)
	}
	if c.SendOverhead < 0 || c.RecvOverhead < 0 || c.NetStartup < 0 || c.HopLatency < 0 {
		return fmt.Errorf("network: config %q: negative overhead", c.Name)
	}
	if c.ByteCopyNS < 0 || c.CombineByteNS < 0 {
		return fmt.Errorf("network: config %q: negative per-byte cost", c.Name)
	}
	return nil
}

// Scale returns a copy of the configuration with every software overhead
// multiplied by f. The paper observes a 2–5% loss for MPI over NX on the
// Paragon; ParagonMPI is ParagonNX scaled by 1.04.
func (c Config) Scale(f float64) Config {
	c.SendOverhead = Time(float64(c.SendOverhead) * f)
	c.RecvOverhead = Time(float64(c.RecvOverhead) * f)
	c.ByteCopyNS *= f
	c.CombineByteNS *= f
	return c
}

// CopyCost returns the processor-side cost of copying n bytes.
func (c Config) CopyCost(n int) Time { return Time(c.ByteCopyNS * float64(n)) }

// CombineCost returns the processor-side cost of merging n received bytes
// into the accumulated bundle.
func (c Config) CombineCost(n int) Time { return Time(c.CombineByteNS * float64(n)) }

// WireTime returns the occupancy duration of a transfer of n bytes over a
// route of the given hop count.
func (c Config) WireTime(hops, n int) Time {
	return c.NetStartup + Time(hops)*c.HopLatency + Time(float64(n)*1e9/c.LinkBandwidth)
}

// ParagonNX models the Intel Paragon under the native NX library:
// a 2-D mesh, 200 MB/s channels (~90 MB/s sustained at application level),
// and ~45 µs one-way short-message latency split between sender and
// receiver software.
func ParagonNX() Config {
	return Config{
		Name:          "paragon-nx",
		SendOverhead:  22_000, // 22 µs
		RecvOverhead:  23_000, // 23 µs
		ByteCopyNS:    10.0,   // ~100 MB/s software path each side (NX end-to-end ≈ 70–90 MB/s)
		CombineByteNS: 12.0,   // i860 large-buffer memcpy for merging bundles
		NetStartup:    8_000,  // 8 µs
		HopLatency:    40,     // 40 ns/hop (wormhole router)
		LinkBandwidth: 175e6,  // of the 200 MB/s hardware channels
		Switching:     Wormhole,
	}
}

// ParagonMPI is the Paragon under the (early, slower) MPI environment: the
// paper reports a uniform 2–5% software-overhead loss over NX.
func ParagonMPI() Config {
	c := ParagonNX().Scale(1.04)
	c.Name = "paragon-mpi"
	return c
}

// T3DMPI models the Cray T3D under MPI: a 3-D torus with six 300 MB/s
// channels per node (~150 MB/s sustained to the application), lower
// per-message software cost than the Paragon, and a much richer bisection.
func T3DMPI() Config {
	return Config{
		Name:          "t3d-mpi",
		SendOverhead:  13_000, // 13 µs
		RecvOverhead:  14_000,
		ByteCopyNS:    3.0,  // the T3D's block-transfer engine moves user buffers with little CPU work
		CombineByteNS: 22.0, // combining is plain Alpha 21064 memcpy (~45 MB/s on large uncached buffers) — the paper's "cost of combining messages"
		NetStartup:    2_000,
		HopLatency:    25,
		LinkBandwidth: 260e6, // of the 300 MB/s hardware channels
		Switching:     Wormhole,
	}
}

// Network prices transfers between logical ranks over a placed topology.
// It is not safe for concurrent use; the sim runtime serializes access.
type Network struct {
	topo  topology.Topology
	place *topology.Placement
	cfg   Config

	// linkFree[i] is the instant directed link i becomes idle.
	linkFree []Time
	// linkBusy[i] and linkUse[i] accumulate per-link occupancy and
	// transfer counts for hot-spot reporting.
	linkBusy []Time
	linkUse  []int
	degree   int

	// pathBuf is the scratch route buffer Transfer reuses; valid because
	// the Network is single-threaded per run (see the type comment).
	pathBuf []topology.Link

	// Aggregate statistics for utilization reporting.
	transfers int
	bytes     int64
	busy      Time // summed per-link occupancy
	blocked   Time // summed time transfers waited on busy links
}

// New builds a Network over the topology with the given placement and cost
// configuration. The placement must cover exactly the topology's nodes.
func New(topo topology.Topology, place *topology.Placement, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if place.Size() != topo.Nodes() {
		return nil, fmt.Errorf("network: placement covers %d ranks but topology has %d nodes", place.Size(), topo.Nodes())
	}
	// The link table is indexed by node*stride + direction; directions
	// range over 1..Degree() for every topology (mesh/torus use the
	// compass constants, the hypercube uses dimension+1), so Degree()+1
	// slots per node cover them exactly.
	deg := topo.Degree() + 1
	return &Network{
		topo:     topo,
		place:    place,
		cfg:      cfg,
		linkFree: make([]Time, topo.Nodes()*deg),
		linkBusy: make([]Time, topo.Nodes()*deg),
		linkUse:  make([]int, topo.Nodes()*deg),
		degree:   deg,
	}, nil
}

// Config returns the cost configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Topology returns the underlying physical topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Placement returns the logical→physical mapping in use.
func (n *Network) Placement() *topology.Placement { return n.place }

func (n *Network) linkIndex(l topology.Link) int {
	return l.From*n.degree + int(l.Dir)
}

// Transfer prices a message of the given size from logical rank src to
// logical rank dst, entering the network at time ready. It returns the
// arrival instant at dst and mutates link availability. Transfers between
// co-located ranks (same physical node, only possible under non-injective
// placements, which we do not construct) or src==dst cost only NetStartup.
func (n *Network) Transfer(src, dst, bytes int, ready Time) Time {
	n.transfers++
	n.bytes += int64(bytes)
	a := n.place.Node(src)
	b := n.place.Node(dst)
	path := n.topo.AppendRoute(n.pathBuf[:0], a, b)
	n.pathBuf = path
	if len(path) == 0 {
		return ready + n.cfg.NetStartup
	}
	switch n.cfg.Switching {
	case StoreAndForward:
		return n.storeAndForward(path, bytes, ready)
	default:
		return n.wormhole(path, bytes, ready)
	}
}

func (n *Network) wormhole(path []topology.Link, bytes int, ready Time) Time {
	acquire := ready
	for _, l := range path {
		if f := n.linkFree[n.linkIndex(l)]; f > acquire {
			acquire = f
		}
	}
	n.blocked += acquire - ready
	dur := n.cfg.WireTime(len(path), bytes)
	release := acquire + dur
	for _, l := range path {
		idx := n.linkIndex(l)
		n.linkFree[idx] = release
		n.linkBusy[idx] += dur
		n.linkUse[idx]++
	}
	n.busy += Time(len(path)) * dur
	return release
}

func (n *Network) storeAndForward(path []topology.Link, bytes int, ready Time) Time {
	t := ready
	per := n.cfg.WireTime(1, bytes)
	for _, l := range path {
		idx := n.linkIndex(l)
		start := t
		if f := n.linkFree[idx]; f > start {
			start = f
		}
		n.blocked += start - t
		t = start + per
		n.linkFree[idx] = t
		n.linkBusy[idx] += per
		n.linkUse[idx]++
		n.busy += per
	}
	return t
}

// Stats summarizes network activity since construction or the last Reset.
type Stats struct {
	Transfers   int   // number of Transfer calls
	Bytes       int64 // payload bytes moved
	LinkBusy    Time  // summed per-link occupancy
	BlockedTime Time  // summed waiting-for-busy-links time
}

// Stats returns the accumulated counters.
func (n *Network) Stats() Stats {
	return Stats{Transfers: n.transfers, Bytes: n.bytes, LinkBusy: n.busy, BlockedTime: n.blocked}
}

// LinkStats describes one directed link's accumulated load.
type LinkStats struct {
	Link      topology.Link
	Busy      Time // total occupancy
	Transfers int  // transfers that crossed the link
}

// HotLinks returns the k busiest directed links in decreasing occupancy —
// the hot-spot report behind the paper's congestion arguments (the links
// into P0 dominate a 2-Step run; PersAlltoAll saturates the mesh centre).
func (n *Network) HotLinks(k int) []LinkStats {
	var all []LinkStats
	for i, busy := range n.linkBusy {
		if busy == 0 {
			continue
		}
		all = append(all, LinkStats{
			Link:      topology.Link{From: i / n.degree, Dir: topology.Direction(i % n.degree)},
			Busy:      busy,
			Transfers: n.linkUse[i],
		})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Busy != all[b].Busy {
			return all[a].Busy > all[b].Busy
		}
		return all[a].Link.From < all[b].Link.From
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// NodeLoad returns, per physical node, the occupancy of its busiest
// outgoing link — the input of viz.Heatmap.
func (n *Network) NodeLoad() []Time {
	out := make([]Time, n.topo.Nodes())
	for i, busy := range n.linkBusy {
		node := i / n.degree
		if busy > out[node] {
			out[node] = busy
		}
	}
	return out
}

// Reset clears link availability and statistics so the network can price a
// fresh run.
func (n *Network) Reset() {
	for i := range n.linkFree {
		n.linkFree[i] = 0
		n.linkBusy[i] = 0
		n.linkUse[i] = 0
	}
	n.transfers, n.bytes, n.busy, n.blocked = 0, 0, 0, 0
}
