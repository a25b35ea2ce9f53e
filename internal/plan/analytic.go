package plan

import (
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/topology"
)

// Score is one algorithm's analytic estimate.
type Score struct {
	// Algorithm is the registry name.
	Algorithm string
	// PredictedMs is the analytic tier's time estimate in milliseconds.
	PredictedMs float64
}

// Rank scores every candidate with the analytic cost model and returns
// them fastest-predicted first. Ties preserve candidate order, so the
// ranking is deterministic. Only Broadcast is ranked (see estimate). The
// spec must be valid for the machine (core.Spec.Validate), as Decide
// ensures.
func Rank(m *machine.Machine, spec core.Spec, msgLen int, candidates []string) []Score {
	md := newModel(m, spec, msgLen)
	out := make([]Score, len(candidates))
	for i, name := range candidates {
		out[i] = Score{Algorithm: name, PredictedMs: md.estimate(name) / 1e6}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].PredictedMs < out[j].PredictedMs })
	return out
}

// model carries one instance's cost helpers. All internal times are
// nanoseconds (float64); Rank converts to milliseconds at the edge.
//
// The estimates mirror the simulator's charging rules (sim package
// comment) without contention: a send costs SendOverhead plus the byte
// copy, the wire adds startup, per-hop latency and bytes/bandwidth, a
// receive costs RecvOverhead plus the byte copy, and message-combining
// algorithms additionally pay the per-byte combine cost. An algorithm
// that compiles to a step schedule (core.Steps) is priced from that
// schedule with per-rank clocks and true hop distances, so
// stalled-growth distributions are priced as badly as the simulator
// prices them; the rest have closed forms.
type model struct {
	spec     core.Spec
	l        int
	cfg      network.Config
	topo     topology.Topology
	place    *topology.Placement
	meanHops float64
	// Scratch price reuses from schedule to schedule.
	clocks []float64
	sizes  []int64
	flight []transfer
}

func newModel(m *machine.Machine, spec core.Spec, msgLen int) *model {
	md := &model{
		spec:  spec,
		l:     msgLen,
		cfg:   m.Cfg,
		topo:  m.Topo,
		place: m.Place,
	}
	md.meanHops = md.sampleMeanHops()
	return md
}

// sampleMeanHops estimates the mean route length between logical ranks.
// Small machines are measured exactly; larger ones over a deterministic
// stride sample.
func (md *model) sampleMeanHops() float64 {
	p := md.spec.P()
	if p <= 1 {
		return 0
	}
	total, n := 0.0, 0
	if p <= 128 {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				total += float64(md.hop(a, b))
				n++
			}
		}
	} else {
		// Deterministic sample: each rank against a fixed stride of peers.
		for a := 0; a < p; a++ {
			for k := 1; k <= 16; k++ {
				b := (a + k*(p/17+1)) % p
				if b == a {
					continue
				}
				total += float64(md.hop(a, b))
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// hop returns the physical route length between two logical ranks.
func (md *model) hop(a, b int) int {
	return md.topo.Distance(md.place.Node(a), md.place.Node(b))
}

func (md *model) so() float64          { return float64(md.cfg.SendOverhead) }
func (md *model) ro() float64          { return float64(md.cfg.RecvOverhead) }
func (md *model) copy(n int64) float64 { return md.cfg.ByteCopyNS * float64(n) }
func (md *model) comb(n int64) float64 { return md.cfg.CombineByteNS * float64(n) }

// wire prices an uncontended transfer of n bytes over hops links.
func (md *model) wire(n int64, hops float64) float64 {
	return float64(md.cfg.NetStartup) + float64(md.cfg.HopLatency)*hops +
		float64(n)/md.cfg.LinkBandwidth*1e9
}

// barrier mirrors the simulator's barrier charge.
func (md *model) barrier() float64 {
	p := md.spec.P()
	steps := math.Ceil(math.Log2(float64(p)))
	if p <= 1 {
		steps = 0
	}
	return steps * (md.so() + md.ro() + float64(md.cfg.NetStartup))
}

func (md *model) logp() float64 {
	lp := math.Ceil(math.Log2(float64(md.spec.P())))
	if lp < 1 {
		lp = 1
	}
	return lp
}

// estimate returns the predicted time (ns) of one broadcast algorithm on
// the instance: the price of its compiled schedule if it has one, its
// closed form otherwise. Any other name, which Decide never ranks (the
// registry is fixed at build time), gets 2-Step's closed form.
func (md *model) estimate(name string) float64 {
	if alg, err := core.ByName(name); err == nil {
		if t, ok := md.price(alg, md.spec); ok {
			return t
		}
	}
	switch name {
	case "PersAlltoAll":
		return md.estPersAlltoAll()
	case "Repos_Lin":
		return md.estRepos(core.BrLin())
	case "Repos_xy_source":
		return md.estRepos(core.BrXYSource())
	case "Repos_xy_dim":
		return md.estRepos(core.BrXYDim())
	case "Part_Lin":
		return md.estPart(core.BrLin())
	case "Part_xy_source":
		return md.estPart(core.BrXYSource())
	case "Part_xy_dim":
		return md.estPart(core.BrXYDim())
	case "Ring_AllGather":
		return md.estRing()
	case "RD_AllGather":
		return md.estRD()
	case "Indep_1toP":
		return md.estIndep()
	case "Bcast_Circulant":
		return md.estCirculant()
	}
	// 2-Step itself, and every name outside the broadcast suite.
	return md.estTwoStep()
}

// transfer is a priced message between its send and its receive.
type transfer struct {
	from, to int32
	bytes    int64
	arrives  float64
}

// price replays the schedule alg compiles for spec (core.Steps; false if
// it has none) in one pass: a send advances the sender's clock by the
// send overhead and the copy of its current bundle and puts the bundle on
// an uncontended wire over the true hop distance; the matching receive
// waits for it, pays the receive overhead, the copy and the combine, and
// grows the receiver's bundle. spec may be an ideal repositioning target
// or a machine half rather than md.spec; its ranks are priced where the
// full machine places them. The result is the last clock.
func (md *model) price(alg core.Algorithm, spec core.Spec) (float64, bool) {
	p := spec.P()
	md.clocks = append(md.clocks[:0], make([]float64, p)...)
	md.sizes = append(md.sizes[:0], make([]int64, p)...)
	clocks, sizes, flight := md.clocks, md.sizes, md.flight[:0]
	for _, src := range spec.Sources {
		sizes[src] = int64(md.l)
	}
	ok := core.Steps(alg, spec, func(st core.Step) {
		r := st.Rank
		if !st.Recv {
			n := sizes[r]
			clocks[r] += md.so() + md.copy(n)
			flight = append(flight, transfer{r, st.Peer, n, clocks[r] + md.wire(n, float64(md.hop(int(r), int(st.Peer))))})
			return
		}
		i := slices.IndexFunc(flight, func(t transfer) bool { return t.from == st.Peer && t.to == r })
		t := flight[i]
		flight[i] = flight[len(flight)-1]
		flight = flight[:len(flight)-1]
		clocks[r] = math.Max(clocks[r], t.arrives) + md.ro() + md.copy(t.bytes) + md.comb(t.bytes)
		sizes[r] += t.bytes
	})
	md.flight = flight
	return maxClock(clocks), ok
}

func maxClock(clocks []float64) float64 {
	m := 0.0
	for _, c := range clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// estRepos prices a repositioning algorithm: barrier, the parallel partial
// permutation onto the inner algorithm's ideal distribution (only sources
// that actually move pay; the dist.Ideal* distance-to-ideal signal), then
// the inner schedule on the ideal spec.
func (md *model) estRepos(inner core.Algorithm) float64 {
	r, c := md.spec.Rows, md.spec.Cols
	ideal, err := core.IdealFor(inner, r, c).Sources(r, c, md.spec.S())
	if err != nil {
		return md.estTwoStep()
	}
	broadcast, _ := md.price(inner, core.Spec{Rows: r, Cols: c, Sources: ideal, Indexing: md.spec.Indexing})
	return md.barrier() + md.permCost(md.spec.Sources, ideal) + broadcast
}

// permCost prices the partial permutation k-th source → k-th target: the
// moves run in parallel, so the cost is the slowest single move.
func (md *model) permCost(sources, targets []int) float64 {
	worst := 0.0
	l := int64(md.l)
	for k, src := range sources {
		if k >= len(targets) || targets[k] == src {
			continue
		}
		d := float64(md.hop(src, targets[k]))
		cost := md.so() + md.copy(l) + md.wire(l, d) + md.ro() + md.copy(l)
		if cost > worst {
			worst = cost
		}
	}
	return worst
}

// estPart prices a partitioning algorithm: split the mesh into two halves
// along the longer dimension, reposition within each half, run the inner
// algorithm in both halves concurrently, then the pairwise inter-half
// exchange of the two bundles.
func (md *model) estPart(inner core.Algorithm) float64 {
	r, c := md.spec.Rows, md.spec.Cols
	p, s := md.spec.P(), md.spec.S()
	if p < 4 || s < 2 {
		return md.estRepos(inner)
	}
	// Halves along the longer dimension; source counts proportional to
	// half sizes.
	r1, c1, r2, c2 := r, c/2, r, c-c/2
	boundary := c1 // hop count between matched half ranks
	if r >= c {
		r1, c1, r2, c2 = r/2, c, r-r/2, c
		boundary = r1
	}
	s1 := max(s*(r1*c1)/p, 1)
	s2 := max(s-s1, 1)
	halfEst := func(rows, cols, srcs int) float64 {
		ideal, err := core.IdealFor(inner, rows, cols).Sources(rows, cols, srcs)
		if err != nil {
			return md.estTwoStep()
		}
		t, _ := md.price(inner, core.Spec{Rows: rows, Cols: cols, Sources: ideal, Indexing: md.spec.Indexing})
		return t
	}
	e1 := halfEst(r1, c1, s1)
	e2 := halfEst(r2, c2, s2)
	// Perm cost within halves ≈ the full-machine perm bound.
	perm := md.permCostHalf()
	// Final exchange: matched pairs across the boundary swap bundles of
	// s1·L and s2·L.
	b1, b2 := int64(s1)*int64(md.l), int64(s2)*int64(md.l)
	exch := md.so() + md.copy(b1) + md.wire(max(b1, b2), float64(boundary)) +
		md.ro() + md.copy(b2) + md.comb(b2)
	return md.barrier() + perm + math.Max(e1, e2) + exch
}

// permCostHalf bounds the in-half repositioning move cost.
func (md *model) permCostHalf() float64 {
	l := int64(md.l)
	return md.so() + md.copy(l) + md.wire(l, math.Max(1, md.meanHops/2)) + md.ro() + md.copy(l)
}

// --- closed forms for the library baselines --------------------------------

// estTwoStep: gather s messages at P0 (serialized at the receiver), then
// a halving-pattern one-to-all broadcast of the concatenation.
func (md *model) estTwoStep() float64 {
	s := int64(md.spec.S())
	l := int64(md.l)
	gather := md.so() + md.copy(l) + md.wire(l, md.meanHops) + float64(s)*(md.ro()+md.copy(l))
	concat := md.comb(s * l)
	bundle := s * l
	bcast := md.logp() * (md.so() + md.copy(bundle) + md.wire(bundle, md.meanHops) + md.ro() + md.copy(bundle))
	return gather + concat + bcast
}

// estPersAlltoAll: p−1 permutation rounds; sources send every round,
// every processor receives s messages.
func (md *model) estPersAlltoAll() float64 {
	p := float64(md.spec.P())
	s := float64(md.spec.S())
	l := int64(md.l)
	sourcePath := (p-1)*(md.so()+md.copy(l)) + s*(md.ro()+md.copy(l))
	sinkPath := s * (md.ro() + md.copy(l))
	return math.Max(sourcePath, sinkPath) + md.wire(l, md.meanHops)
}

// estRing: p−1 neighbor steps; every contribution traverses the whole
// ring, so each processor moves ~s·L bytes in and out.
func (md *model) estRing() float64 {
	p := float64(md.spec.P())
	s := int64(md.spec.S())
	l := int64(md.l)
	perStep := md.so() + md.ro() + float64(md.cfg.NetStartup) + float64(md.cfg.HopLatency)
	bytes := s * l
	byteCost := 2*md.copy(bytes) + float64(bytes)/md.cfg.LinkBandwidth*1e9 + md.comb(bytes)
	return (p-1)*perStep + byteCost
}

// estRD: ⌈log2 p⌉ exchange rounds with doubling bundles; each processor
// moves ~s·L bytes total.
func (md *model) estRD() float64 {
	s := int64(md.spec.S())
	l := int64(md.l)
	perRound := md.so() + md.ro() + float64(md.cfg.NetStartup) + float64(md.cfg.HopLatency)*md.meanHops
	bytes := s * l
	byteCost := 2*md.copy(bytes) + float64(bytes)/md.cfg.LinkBandwidth*1e9 + md.comb(bytes)
	return md.logp()*perRound + byteCost
}

// --- closed forms for the broadcast extensions -----------------------------

// estCirculant replays Bcast_Circulant's round structure exactly: per
// round j with skip 2^j, every rank's send and receive volumes follow
// from the closed-form holder intervals, and per-rank clocks carry the
// critical path across rounds with true hop distances — the circulant
// analogue of price. Unlike the neighbor-hop line algorithms, a circulant
// round puts every rank's message on a long wormhole path at once, and
// dimension-ordered routing funnels many of those paths through shared
// links; each transfer's serialization term is stretched by the occupancy
// of the busiest link on its route.
func (md *model) estCirculant() float64 {
	p := md.spec.P()
	if p <= 1 {
		return 0
	}
	l := int64(md.l)
	countUseful := func(r, limit int) int64 {
		n := int64(0)
		for _, o := range md.spec.Sources {
			if (r-o+p)%p < limit {
				n++
			}
		}
		return n
	}
	clocks := make([]float64, p)
	dep := make([]float64, p)
	arr := make([]float64, p)
	sendN := make([]int64, p)
	recvN := make([]int64, p)
	linkStride := md.topo.Degree() + 1
	linkUse := make([]int, md.topo.Nodes()*linkStride)
	var routeBuf []topology.Link
	for skip := 1; skip < p; skip <<= 1 {
		limit := skip
		if p-skip < limit {
			limit = p - skip
		}
		for i := range linkUse {
			linkUse[i] = 0
		}
		for r := 0; r < p; r++ {
			if countUseful(r, limit) > 0 {
				routeBuf = md.topo.AppendRoute(routeBuf[:0], md.place.Node(r), md.place.Node((r+skip)%p))
				for _, lk := range routeBuf {
					linkUse[lk.From*linkStride+int(lk.Dir)]++
				}
			}
		}
		for r := 0; r < p; r++ {
			n := countUseful(r, limit)
			sendN[r] = n
			if n > 0 {
				b := n * l
				dep[r] = clocks[r] + md.so() + md.copy(b)
				to := (r + skip) % p
				congest := 1
				routeBuf = md.topo.AppendRoute(routeBuf[:0], md.place.Node(r), md.place.Node(to))
				for _, lk := range routeBuf {
					if u := linkUse[lk.From*linkStride+int(lk.Dir)]; u > congest {
						congest = u
					}
				}
				h := float64(len(routeBuf))
				arr[to] = dep[r] + float64(md.cfg.NetStartup) + float64(md.cfg.HopLatency)*h +
					float64(congest)*float64(b)/md.cfg.LinkBandwidth*1e9
				recvN[to] = n
			}
		}
		for r := 0; r < p; r++ {
			t := clocks[r]
			if sendN[r] > 0 {
				t = dep[r]
			}
			if recvN[r] > 0 {
				b := recvN[r] * l
				t = math.Max(t, arr[r]) + md.ro() + md.copy(b) + md.comb(b)
			}
			clocks[r] = t
			sendN[r], recvN[r] = 0, 0
		}
	}
	return maxClock(clocks)
}

// estIndep: s uncoordinated binomial broadcasts; every processor relays
// up to s messages per level and the overlapping trees contend for the
// same links (the congestion the paper rejects it for).
func (md *model) estIndep() float64 {
	s := float64(md.spec.S())
	l := int64(md.l)
	perLevel := md.so() + md.ro() + 2*md.copy(l) + md.wire(l, md.meanHops)
	congestion := s * (md.ro() + md.copy(l) + float64(l)/md.cfg.LinkBandwidth*1e9)
	return md.logp()*perLevel + congestion
}
