package network

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func mustNet(t *testing.T, topo topology.Topology, cfg Config) *Network {
	t.Helper()
	n, err := New(topo, topology.IdentityPlacement(topo.Nodes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigsValidate(t *testing.T) {
	for _, c := range []Config{ParagonNX(), ParagonMPI(), T3DMPI()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestScale(t *testing.T) {
	base := ParagonNX()
	mpi := ParagonMPI()
	if mpi.SendOverhead <= base.SendOverhead {
		t.Error("MPI send overhead not above NX")
	}
	if mpi.LinkBandwidth != base.LinkBandwidth {
		t.Error("Scale must not touch bandwidth")
	}
	if mpi.NetStartup != base.NetStartup {
		t.Error("Scale must not touch network startup")
	}
}

func TestTransferSelfCostsStartupOnly(t *testing.T) {
	n := mustNet(t, topology.MustMesh2D(4, 4), ParagonNX())
	got := n.Transfer(3, 3, 1<<20, 100)
	want := Time(100) + ParagonNX().NetStartup
	if got != want {
		t.Fatalf("self transfer arrival = %d, want %d", got, want)
	}
}

func TestTransferMonotoneInBytes(t *testing.T) {
	topo := topology.MustMesh2D(8, 8)
	f := func(a, b uint16, kb uint8) bool {
		n := mustNet(t, topo, ParagonNX())
		src := int(a) % topo.Nodes()
		dst := int(b) % topo.Nodes()
		small := n.Transfer(src, dst, 64, 0)
		n.Reset()
		big := n.Transfer(src, dst, 64+int(kb)*1024, 0)
		return big >= small
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWormholeContentionSerializes(t *testing.T) {
	// Two transfers sharing the middle link of a 1×4 mesh must serialize.
	topo := topology.MustMesh2D(1, 4)
	n := mustNet(t, topo, ParagonNX())
	a1 := n.Transfer(0, 3, 4096, 0)
	a2 := n.Transfer(1, 2, 4096, 0) // uses link 1→2, held by the first wormhole
	if a2 < a1 {
		t.Fatalf("overlapping transfer finished first: %d < %d", a2, a1)
	}
	wire := ParagonNX().WireTime(1, 4096)
	if a2 < a1+wire {
		t.Fatalf("second transfer (%d) not serialized after first (%d) + wire (%d)", a2, a1, wire)
	}
}

func TestDisjointPathsOverlap(t *testing.T) {
	// Transfers on disjoint rows must not delay each other.
	topo := topology.MustMesh2D(2, 4)
	n := mustNet(t, topo, ParagonNX())
	solo := n.Transfer(topo.Node(0, 0), topo.Node(0, 3), 8192, 0)
	n.Reset()
	_ = n.Transfer(topo.Node(1, 0), topo.Node(1, 3), 8192, 0)
	withOther := n.Transfer(topo.Node(0, 0), topo.Node(0, 3), 8192, 0)
	if withOther != solo {
		t.Fatalf("disjoint transfer delayed: %d vs %d", withOther, solo)
	}
}

func TestStoreAndForwardSlowerThanWormhole(t *testing.T) {
	topo := topology.MustMesh2D(1, 8)
	wcfg := ParagonNX()
	scfg := ParagonNX()
	scfg.Switching = StoreAndForward
	w := mustNet(t, topo, wcfg)
	s := mustNet(t, topo, scfg)
	const bytes = 16384
	aw := w.Transfer(0, 7, bytes, 0)
	as := s.Transfer(0, 7, bytes, 0)
	if as <= aw {
		t.Fatalf("store-and-forward (%d) not slower than wormhole (%d) on a long path", as, aw)
	}
}

func TestResetClearsState(t *testing.T) {
	topo := topology.MustMesh2D(1, 4)
	n := mustNet(t, topo, ParagonNX())
	first := n.Transfer(0, 3, 4096, 0)
	_ = n.Transfer(0, 3, 4096, 0) // queued behind the first
	n.Reset()
	if st := n.Stats(); st.Transfers != 0 || st.Bytes != 0 {
		t.Fatalf("stats not cleared: %+v", st)
	}
	again := n.Transfer(0, 3, 4096, 0)
	if again != first {
		t.Fatalf("post-reset transfer priced differently: %d vs %d", again, first)
	}
}

func TestStatsAccumulate(t *testing.T) {
	topo := topology.MustMesh2D(4, 4)
	n := mustNet(t, topo, ParagonNX())
	n.Transfer(0, 15, 1000, 0)
	n.Transfer(5, 10, 2000, 0)
	st := n.Stats()
	if st.Transfers != 2 {
		t.Errorf("Transfers = %d", st.Transfers)
	}
	if st.Bytes != 3000 {
		t.Errorf("Bytes = %d", st.Bytes)
	}
	if st.LinkBusy <= 0 {
		t.Errorf("LinkBusy = %d", st.LinkBusy)
	}
}

func TestRandomPlacementChangesCosts(t *testing.T) {
	// Under random placement, logically adjacent ranks are usually far
	// apart physically, so a neighbour transfer costs more than under
	// identity placement.
	topo := topology.MustTorus3D(8, 4, 4)
	id, err := New(topo, topology.IdentityPlacement(topo.Nodes()), T3DMPI())
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := New(topo, topology.RandomPlacement(topo.Nodes(), 7), T3DMPI())
	if err != nil {
		t.Fatal(err)
	}
	var idTotal, rndTotal Time
	for r := 0; r+1 < topo.Nodes(); r++ {
		idTotal += id.Transfer(r, r+1, 1024, 0)
		id.Reset()
		rndTotal += rnd.Transfer(r, r+1, 1024, 0)
		rnd.Reset()
	}
	if rndTotal <= idTotal {
		t.Fatalf("random placement (%d) not costlier than identity (%d) for neighbour traffic", rndTotal, idTotal)
	}
}

func TestPlacementSizeMismatch(t *testing.T) {
	topo := topology.MustMesh2D(4, 4)
	if _, err := New(topo, topology.IdentityPlacement(8), ParagonNX()); err == nil {
		t.Fatal("mismatched placement accepted")
	}
}

func TestWireTimeComponents(t *testing.T) {
	cfg := ParagonNX()
	zeroByte := cfg.WireTime(5, 0)
	if want := cfg.NetStartup + 5*cfg.HopLatency; zeroByte != want {
		t.Fatalf("WireTime(5,0) = %d, want %d", zeroByte, want)
	}
	perByte := cfg.WireTime(1, 1_000_000) - cfg.WireTime(1, 0)
	wantNS := Time(1e6 * 1e9 / cfg.LinkBandwidth)
	if diff := perByte - wantNS; diff < -1000 || diff > 1000 {
		t.Fatalf("per-byte wire time = %d, want ≈%d", perByte, wantNS)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(2_500_000) // 2.5 ms
	if tm.Milliseconds() != 2.5 {
		t.Errorf("Milliseconds = %v", tm.Milliseconds())
	}
	if tm.Duration() != 2_500_000 {
		t.Errorf("Duration = %v", tm.Duration())
	}
}

func TestModelStrings(t *testing.T) {
	if Wormhole.String() != "wormhole" || StoreAndForward.String() != "store-and-forward" {
		t.Error("model names wrong")
	}
	if Model(9).String() == "" {
		t.Error("unknown model has empty name")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	bad := []Config{
		{Name: "bw", LinkBandwidth: 0},
		{Name: "neg", LinkBandwidth: 1, SendOverhead: -1},
		{Name: "copy", LinkBandwidth: 1, ByteCopyNS: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s accepted", c.Name)
		}
		if _, err := New(topology.MustMesh2D(1, 2), topology.IdentityPlacement(2), c); err == nil {
			t.Errorf("New accepted config %s", c.Name)
		}
	}
}

func TestHotLinksOrderingAndCap(t *testing.T) {
	topo := topology.MustMesh2D(1, 4)
	n := mustNet(t, topo, ParagonNX())
	// Three transfers along the line: link 0→1 carries all three,
	// 1→2 two, 2→3 one.
	n.Transfer(0, 1, 1000, 0)
	n.Transfer(0, 2, 1000, 0)
	n.Transfer(0, 3, 1000, 0)
	hot := n.HotLinks(0)
	if len(hot) != 3 {
		t.Fatalf("hot links: %v", hot)
	}
	if hot[0].Transfers != 3 || hot[1].Transfers != 2 || hot[2].Transfers != 1 {
		t.Fatalf("transfer counts: %v", hot)
	}
	if hot[0].Busy < hot[1].Busy || hot[1].Busy < hot[2].Busy {
		t.Fatalf("not sorted by occupancy: %v", hot)
	}
	if capped := n.HotLinks(2); len(capped) != 2 {
		t.Fatalf("cap ignored: %v", capped)
	}
	n.Reset()
	if len(n.HotLinks(0)) != 0 {
		t.Fatal("hot links survive Reset")
	}
}

func TestNodeLoad(t *testing.T) {
	topo := topology.MustMesh2D(1, 3)
	n := mustNet(t, topo, ParagonNX())
	n.Transfer(0, 2, 4096, 0)
	load := n.NodeLoad()
	if len(load) != 3 {
		t.Fatalf("load entries: %d", len(load))
	}
	if load[0] == 0 || load[1] == 0 {
		t.Fatalf("forwarding nodes idle: %v", load)
	}
	if load[2] != 0 {
		t.Fatalf("destination shows outgoing load: %v", load)
	}
}

func TestAccessors(t *testing.T) {
	topo := topology.MustMesh2D(2, 2)
	place := topology.IdentityPlacement(4)
	n, err := New(topo, place, ParagonNX())
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology() != topo || n.Placement() != place {
		t.Error("accessors return wrong objects")
	}
	if n.Config().Name != "paragon-nx" {
		t.Errorf("config name %s", n.Config().Name)
	}
}

func TestStoreAndForwardStats(t *testing.T) {
	cfg := ParagonNX()
	cfg.Switching = StoreAndForward
	topo := topology.MustMesh2D(1, 4)
	n := mustNet(t, topo, cfg)
	n.Transfer(0, 3, 512, 0)
	st := n.Stats()
	if st.Transfers != 1 || st.LinkBusy == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(n.HotLinks(0)) != 3 {
		t.Fatalf("store-and-forward should touch 3 links: %v", n.HotLinks(0))
	}
}
