package plan

import (
	"math"
	"sort"
	"strconv"
	"strings"

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
// ranking is deterministic.
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
// algorithms additionally pay the per-byte combine cost. For the
// line-based algorithms the estimate replays the exact halving pattern of
// core's compiler.line (the replay behind core.GrowthEfficiency) with
// per-position virtual clocks and true hop distances, so stalled-growth
// distributions are priced as badly as the simulator prices them.
type model struct {
	spec     core.Spec
	l        int
	cfg      network.Config
	topo     topology.Topology
	place    *topology.Placement
	mesh     *topology.Mesh2D
	meanHops float64
}

func newModel(m *machine.Machine, spec core.Spec, msgLen int) *model {
	md := &model{
		spec:  spec,
		l:     msgLen,
		cfg:   m.Cfg,
		topo:  m.Topo,
		place: m.Place,
		mesh:  topology.MustMesh2D(spec.Rows, spec.Cols),
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

// estimate returns the predicted time (ns) of one algorithm on the
// instance. Unknown names get the conservative 2-Step estimate so that
// user-registered algorithms still rank somewhere sensible.
func (md *model) estimate(name string) float64 {
	switch name {
	case "2-Step":
		return md.estTwoStep()
	case "PersAlltoAll":
		return md.estPersAlltoAll()
	case "Br_Lin":
		return md.estBrLin(md.spec)
	case "Br_xy_source":
		return md.estBrXY(md.spec, true)
	case "Br_xy_dim":
		return md.estBrXY(md.spec, false)
	case "Repos_Lin", "Repos_xy_source", "Repos_xy_dim":
		return md.estRepos(name)
	case "Part_Lin", "Part_xy_source", "Part_xy_dim":
		return md.estPart(name)
	case "Ring_AllGather":
		return md.estRing()
	case "RD_AllGather":
		return md.estRD()
	case "Indep_1toP":
		return md.estIndep()
	case "Bcast_Circulant":
		return md.estCirculant()
	case "Red_Tree":
		return md.estRedTree()
	case "AllRed_RecDouble":
		if p := md.spec.P(); p&(p-1) == 0 {
			return md.estButterfly()
		}
		return md.estRedBcast()
	case "AllRed_RedBcast":
		return md.estRedBcast()
	case "Scatter_Binomial":
		return md.estScatterBinomial()
	case "Scatter_Direct":
		return md.estScatterDirect()
	case "Ag_Ring":
		// The allgather spec names every rank a source, so the ring and
		// recursive-doubling closed forms price it directly.
		return md.estRing()
	case "Ag_RecDouble":
		return md.estRD()
	case "A2A_Pairwise":
		return md.estA2APairwise()
	case "A2A_JungSakho":
		return md.estJungSakho()
	}
	if k, ok := kportPorts(name); ok {
		return md.estKPort(k)
	}
	return md.estTwoStep()
}

// kportPorts parses the port count out of a "Br_kport<k>" registry name.
func kportPorts(name string) (int, bool) {
	const prefix = "Br_kport"
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	k, err := strconv.Atoi(name[len(prefix):])
	if err != nil || k < 1 {
		return 0, false
	}
	return k, true
}

// --- line-replay machinery -------------------------------------------------

// lineState is one line's replay state, positions indexed along the line.
type lineState struct {
	ranks []int // position → full-machine rank
	holds []bool
	sizes []int64
}

// replayLine replays the halving pattern of core's compiler.line over one line,
// advancing the shared per-rank clocks. The pairing rules mirror
// analysis.replayHalving (and therefore the simulator) exactly; only the
// per-operation pricing is added.
func (md *model) replayLine(ls *lineState, clocks []float64) {
	n := len(ls.ranks)
	type seg struct{ lo, n int }
	segs := []seg{{0, n}}
	for {
		split := false
		for _, g := range segs {
			if g.n > 1 {
				split = true
			}
		}
		if !split {
			return
		}
		var next []seg
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + 1) / 2
			for i := 0; i < g.n-h; i++ {
				a, b := g.lo+i, g.lo+i+h
				switch {
				case ls.holds[a] && ls.holds[b]:
					md.exchange(ls, a, b, clocks)
				case ls.holds[a]:
					md.oneway(ls, a, b, clocks)
				case ls.holds[b]:
					md.oneway(ls, b, a, clocks)
				}
			}
			if g.n%2 == 1 {
				u, tgt := g.lo+h-1, g.lo+g.n-1
				if ls.holds[u] && u != tgt {
					md.oneway(ls, u, tgt, clocks)
				}
			}
			next = append(next, seg{g.lo, h}, seg{g.lo + h, g.n - h})
		}
		segs = next
	}
}

// exchange prices a pairwise bundle swap between line positions a and b.
func (md *model) exchange(ls *lineState, a, b int, clocks []float64) {
	ra, rb := ls.ranks[a], ls.ranks[b]
	sa, sb := ls.sizes[a], ls.sizes[b]
	d := float64(md.hop(ra, rb))
	arrAtB := clocks[ra] + md.so() + md.copy(sa) + md.wire(sa, d)
	arrAtA := clocks[rb] + md.so() + md.copy(sb) + md.wire(sb, d)
	clocks[ra] = math.Max(clocks[ra]+md.so()+md.copy(sa), arrAtA) + md.ro() + md.copy(sb) + md.comb(sb)
	clocks[rb] = math.Max(clocks[rb]+md.so()+md.copy(sb), arrAtB) + md.ro() + md.copy(sa) + md.comb(sa)
	ls.sizes[a], ls.sizes[b] = sa+sb, sa+sb
}

// oneway prices a single bundle send from line position a to b.
func (md *model) oneway(ls *lineState, a, b int, clocks []float64) {
	ra, rb := ls.ranks[a], ls.ranks[b]
	sa := ls.sizes[a]
	d := float64(md.hop(ra, rb))
	arr := clocks[ra] + md.so() + md.copy(sa) + md.wire(sa, d)
	clocks[ra] += md.so() + md.copy(sa)
	clocks[rb] = math.Max(clocks[rb], arr) + md.ro() + md.copy(sa) + md.comb(sa)
	ls.sizes[b] += sa
	ls.holds[b] = true
}

// newLine builds a line's state from full-machine ranks and a holdings
// predicate.
func newLine(ranks []int, holds func(rank int) bool, size func(rank int) int64) *lineState {
	ls := &lineState{
		ranks: ranks,
		holds: make([]bool, len(ranks)),
		sizes: make([]int64, len(ranks)),
	}
	for pos, r := range ranks {
		if holds(r) {
			ls.holds[pos] = true
			ls.sizes[pos] = size(r)
		}
	}
	return ls
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

// estBrLin replays Br_Lin over the snake-ordered line of the given spec
// (which may be an ideal repositioning target rather than md.spec).
func (md *model) estBrLin(spec core.Spec) float64 {
	p := spec.P()
	mesh := topology.MustMesh2D(spec.Rows, spec.Cols)
	ranks := make([]int, p)
	for pos := 0; pos < p; pos++ {
		ranks[pos] = spec.Indexing.RankToNode(mesh, pos)
	}
	clocks := make([]float64, md.spec.P())
	ls := newLine(ranks, spec.IsSource, func(int) int64 { return int64(md.l) })
	md.replayLine(ls, clocks)
	return maxClock(clocks)
}

// estBrXY replays Br_xy_source (sourceRule) or Br_xy_dim: the halving
// pattern inside every line of the first dimension, then inside every line
// of the second, per-rank clocks carried across the phases.
func (md *model) estBrXY(spec core.Spec, sourceRule bool) float64 {
	r, c := spec.Rows, spec.Cols
	perRow := make([]int, r)
	perCol := make([]int, c)
	for _, src := range spec.Sources {
		perRow[src/c]++
		perCol[src%c]++
	}
	rowsFirst := r >= c
	if sourceRule {
		maxR, maxC := 0, 0
		for _, v := range perRow {
			if v > maxR {
				maxR = v
			}
		}
		for _, v := range perCol {
			if v > maxC {
				maxC = v
			}
		}
		rowsFirst = maxR < maxC
	}
	rowLine := func(i int) []int {
		line := make([]int, c)
		for j := range line {
			line[j] = i*c + j
		}
		return line
	}
	colLine := func(j int) []int {
		line := make([]int, r)
		for i := range line {
			line[i] = i*c + j
		}
		return line
	}
	clocks := make([]float64, md.spec.P())
	var lines1, lines2 [][]int
	var phase2Vol func(rank int) (bool, int64)
	if rowsFirst {
		for i := 0; i < r; i++ {
			lines1 = append(lines1, rowLine(i))
		}
		for j := 0; j < c; j++ {
			lines2 = append(lines2, colLine(j))
		}
		phase2Vol = func(rank int) (bool, int64) {
			i := rank / c
			return perRow[i] > 0, int64(perRow[i]) * int64(md.l)
		}
	} else {
		for j := 0; j < c; j++ {
			lines1 = append(lines1, colLine(j))
		}
		for i := 0; i < r; i++ {
			lines2 = append(lines2, rowLine(i))
		}
		phase2Vol = func(rank int) (bool, int64) {
			j := rank % c
			return perCol[j] > 0, int64(perCol[j]) * int64(md.l)
		}
	}
	for _, line := range lines1 {
		ls := newLine(line, spec.IsSource, func(int) int64 { return int64(md.l) })
		md.replayLine(ls, clocks)
	}
	for _, line := range lines2 {
		ls := newLine(line,
			func(rank int) bool { h, _ := phase2Vol(rank); return h },
			func(rank int) int64 { _, v := phase2Vol(rank); return v })
		md.replayLine(ls, clocks)
	}
	return maxClock(clocks)
}

// estRepos prices a repositioning algorithm: barrier, the parallel partial
// permutation onto the inner algorithm's ideal distribution (only sources
// that actually move pay; the dist.Ideal* distance-to-ideal signal), then
// the inner replay on the ideal spec.
func (md *model) estRepos(name string) float64 {
	innerName := map[string]string{
		"Repos_Lin":       "Br_Lin",
		"Repos_xy_source": "Br_xy_source",
		"Repos_xy_dim":    "Br_xy_dim",
	}[name]
	ideal, ok := md.idealTargets(innerName)
	if !ok {
		return md.estTwoStep()
	}
	perm := md.permCost(md.spec.Sources, ideal)
	idealSpec := core.Spec{Rows: md.spec.Rows, Cols: md.spec.Cols, Sources: ideal, Indexing: md.spec.Indexing}
	var inner float64
	switch innerName {
	case "Br_Lin":
		inner = md.estBrLin(idealSpec)
	case "Br_xy_source":
		inner = md.estBrXY(idealSpec, true)
	default:
		inner = md.estBrXY(idealSpec, false)
	}
	return md.barrier() + perm + inner
}

// idealTargets returns the sorted ideal positions the inner algorithm's
// repositioning targets on this machine.
func (md *model) idealTargets(innerName string) ([]int, bool) {
	inner, err := core.ByName(innerName)
	if err != nil {
		return nil, false
	}
	gen := core.IdealFor(inner, md.spec.Rows, md.spec.Cols)
	ideal, err := gen.Sources(md.spec.Rows, md.spec.Cols, md.spec.S())
	if err != nil {
		return nil, false
	}
	sorted := append([]int(nil), ideal...)
	sort.Ints(sorted)
	return sorted, true
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
func (md *model) estPart(name string) float64 {
	innerName := map[string]string{
		"Part_Lin":       "Br_Lin",
		"Part_xy_source": "Br_xy_source",
		"Part_xy_dim":    "Br_xy_dim",
	}[name]
	r, c := md.spec.Rows, md.spec.Cols
	p, s := md.spec.P(), md.spec.S()
	if p < 4 || s < 2 {
		return md.estRepos("Repos_" + innerName[3:])
	}
	// Halves along the longer dimension; source counts proportional to
	// half sizes.
	var r1, c1, boundary int
	if r >= c {
		r1, c1 = r/2, c
		boundary = r1 // vertical hop count between matched half ranks
	} else {
		r1, c1 = r, c/2
		boundary = c1
	}
	p1 := r1 * c1
	s1 := s * p1 / p
	if s1 < 1 {
		s1 = 1
	}
	s2 := s - s1
	if s2 < 1 {
		s2 = 1
	}
	inner, err := core.ByName(innerName)
	if err != nil {
		return md.estTwoStep()
	}
	halfEst := func(rows, cols, srcs int) float64 {
		gen := core.IdealFor(inner, rows, cols)
		ideal, err := gen.Sources(rows, cols, srcs)
		if err != nil {
			return md.estTwoStep()
		}
		spec := core.Spec{Rows: rows, Cols: cols, Sources: ideal, Indexing: md.spec.Indexing}
		half := &model{spec: spec, l: md.l, cfg: md.cfg, topo: md.topo, place: md.place,
			mesh: topology.MustMesh2D(rows, cols), meanHops: md.meanHops / 2}
		switch innerName {
		case "Br_Lin":
			return half.estBrLin(spec)
		case "Br_xy_source":
			return half.estBrXY(spec, true)
		default:
			return half.estBrXY(spec, false)
		}
	}
	var rows2, cols2 int
	if r >= c {
		rows2, cols2 = r-r1, c
	} else {
		rows2, cols2 = r, c-c1
	}
	e1 := halfEst(r1, c1, s1)
	e2 := halfEst(rows2, cols2, s2)
	// Perm cost within halves ≈ the full-machine perm bound.
	perm := md.permCostHalf()
	// Final exchange: matched pairs across the boundary swap bundles of
	// s1·L and s2·L.
	b1, b2 := int64(s1)*int64(md.l), int64(s2)*int64(md.l)
	exch := md.so() + md.copy(b1) + md.wire(maxInt64(b1, b2), float64(boundary)) +
		md.ro() + md.copy(b2) + md.comb(b2)
	return md.barrier() + perm + math.Max(e1, e2) + exch
}

// permCostHalf bounds the in-half repositioning move cost.
func (md *model) permCostHalf() float64 {
	l := int64(md.l)
	return md.so() + md.copy(l) + md.wire(l, math.Max(1, md.meanHops/2)) + md.ro() + md.copy(l)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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

// estKPort replays Br_kport<k>'s (k+1)-section pattern (core's compiler.line)
// over the snake-ordered line with per-rank clocks and true hop
// distances, exactly as estBrLin replays core's compiler.line: per level every
// segment's strided groups exchange bundles all-to-all and the segment
// splits into k+1 subsegments, so ~⌈log_{k+1} p⌉ levels at the price of
// up to k serialized sends per holder per level.
func (md *model) estKPort(k int) float64 {
	p := md.spec.P()
	ranks := make([]int, p)
	for pos := 0; pos < p; pos++ {
		ranks[pos] = md.spec.Indexing.RankToNode(md.mesh, pos)
	}
	clocks := make([]float64, p)
	ls := newLine(ranks, md.spec.IsSource, func(int) int64 { return int64(md.l) })
	md.replayLineK(ls, k, clocks)
	return maxClock(clocks)
}

// replayLineK replays the (k+1)-section pattern of core's compiler.line over
// one line, advancing the shared per-rank clocks. Segment splitting,
// group membership, and the straggler rule mirror the algorithm
// exactly; only the per-operation pricing is added.
func (md *model) replayLineK(ls *lineState, k int, clocks []float64) {
	type seg struct{ lo, n int }
	segs := []seg{{0, len(ls.ranks)}}
	var members []int
	for {
		split := false
		for _, g := range segs {
			if g.n > 1 {
				split = true
			}
		}
		if !split {
			return
		}
		var next []seg
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + k) / (k + 1)
			for i := 0; i < h; i++ {
				members = members[:0]
				for pos := g.lo + i; pos < g.lo+g.n; pos += h {
					members = append(members, pos)
				}
				md.groupExchange(ls, members, clocks)
			}
			jlast := (g.n - 1) / h
			for i := g.n - jlast*h; i < h; i++ {
				u, tgt := g.lo+i, g.lo+g.n-1
				if ls.holds[u] && u != tgt {
					md.oneway(ls, u, tgt, clocks)
				}
			}
			for j := 0; j*h < g.n; j++ {
				next = append(next, seg{g.lo + j*h, min(h, g.n-j*h)})
			}
		}
		segs = next
	}
}

// groupExchange prices one group all-to-all bundle exchange among the
// given line positions (core's compiler.exchange): every holding member sends its
// bundle to every other member in member order, then receives and
// merges from every other holder — sends complete before the first
// receive, matching the algorithm's buffered-Send ordering. Reduces to
// exchange at two mutual holders.
func (md *model) groupExchange(ls *lineState, members []int, clocks []float64) {
	if len(members) < 2 {
		return
	}
	var holders []int
	for _, u := range members {
		if ls.holds[u] {
			holders = append(holders, u)
		}
	}
	if len(holders) == 0 {
		return
	}
	// Arrival time at v of holder u's bundle: u's i-th send departs
	// after i+1 serialized send overheads and copies, then the wire.
	type pair struct{ u, v int }
	arr := make(map[pair]float64, len(holders)*(len(members)-1))
	for _, u := range holders {
		ru, su := ls.ranks[u], ls.sizes[u]
		t := clocks[ru]
		for _, v := range members {
			if v == u {
				continue
			}
			t += md.so() + md.copy(su)
			arr[pair{u, v}] = t + md.wire(su, float64(md.hop(ru, ls.ranks[v])))
		}
	}
	var total int64
	for _, u := range holders {
		total += ls.sizes[u]
	}
	for _, v := range members {
		rv := ls.ranks[v]
		t := clocks[rv]
		if ls.holds[v] {
			t += float64(len(members)-1) * (md.so() + md.copy(ls.sizes[v]))
		}
		for _, u := range holders {
			if u == v {
				continue
			}
			su := ls.sizes[u]
			t = math.Max(t, arr[pair{u, v}]) + md.ro() + md.copy(su) + md.comb(su)
		}
		clocks[rv] = t
	}
	for _, v := range members {
		ls.holds[v] = true
		ls.sizes[v] = total
	}
}

// --- collective-extension estimates ----------------------------------------

// estCirculant replays Bcast_Circulant's round structure exactly: per
// round j with skip 2^j, every rank's send and receive volumes follow
// from the closed-form holder intervals, and per-rank clocks carry the
// critical path across rounds with true hop distances — the circulant
// analogue of the estBrLin line replay. Unlike the neighbor-hop line
// algorithms, a circulant round puts every rank's message on a long
// wormhole path at once, and dimension-ordered routing funnels many of
// those paths through shared links; each transfer's serialization term
// is stretched by the occupancy of the busiest link on its route.
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

// estRedTree: the binomial reduction tree — ⌈log2 p⌉ levels, each a
// fixed-size bundle hop plus the fold at the parent (reductions never
// grow the bundle, unlike the broadcast-combining trees).
func (md *model) estRedTree() float64 {
	l := int64(md.l)
	return md.logp() * (md.so() + md.copy(l) + md.wire(l, md.meanHops) + md.ro() + md.copy(l) + md.comb(l))
}

// estButterfly: recursive-doubling all-reduce — ⌈log2 p⌉ symmetric
// exchange rounds, each a send and a receive-plus-fold of the fixed-size
// partial result.
func (md *model) estButterfly() float64 {
	l := int64(md.l)
	return md.logp() * (md.so() + md.copy(l) + md.wire(l, md.meanHops) + md.ro() + md.copy(l) + md.comb(l))
}

// estRedBcast: reduce-then-broadcast all-reduce — the tree down and the
// tree back up, the broadcast half without the fold.
func (md *model) estRedBcast() float64 {
	l := int64(md.l)
	return md.estRedTree() + md.logp()*(md.so()+md.copy(l)+md.wire(l, md.meanHops)+md.ro()+md.copy(l))
}

// estScatterBinomial: the MST scatter's critical path is the root's
// chain of halving blocks — p/2·L, p/4·L, … L — each forwarded once.
func (md *model) estScatterBinomial() float64 {
	p := md.spec.P()
	l := int64(md.l)
	top := 1
	for top < p {
		top <<= 1
	}
	total := 0.0
	for mask := top >> 1; mask > 0; mask >>= 1 {
		b := int64(mask) * l
		total += md.so() + md.copy(b) + md.wire(b, md.meanHops) + md.ro() + md.copy(b) + md.comb(b)
	}
	return total
}

// estScatterDirect: the root serializes p−1 sends of one chunk each; the
// makespan is the root's send chain plus the last chunk's flight.
func (md *model) estScatterDirect() float64 {
	p := float64(md.spec.P())
	l := int64(md.l)
	return (p-1)*(md.so()+md.copy(l)) + md.wire(l, md.meanHops) + md.ro() + md.copy(l)
}

// estA2APairwise: p−1 serialized exchange steps, each moving one chunk
// out and one chunk in.
func (md *model) estA2APairwise() float64 {
	p := float64(md.spec.P())
	l := int64(md.l)
	return (p - 1) * (md.so() + md.copy(l) + md.wire(l, md.meanHops) + md.ro() + md.copy(l))
}

// estJungSakho prices the dimension-ordered torus all-to-all: for each
// torus dimension of radix k (topology.TorusDims — the same
// decomposition the algorithm routes along), k−1 ring steps each moving
// a (p/k)-chunk block, with the true mean hop distance of that step's
// fixed stride. Σ(k_d−1) messages against the pairwise exchange's p−1,
// bought with store-and-forward volume — so it ranks ahead exactly where
// per-message startup dominates.
func (md *model) estJungSakho() float64 {
	p := md.spec.P()
	if p <= 1 {
		return 0
	}
	x, y, z := topology.TorusDims(p)
	total := 0.0
	stride := 1
	for _, k := range []int{x, y, z} {
		if k <= 1 {
			continue
		}
		b := int64(p/k) * int64(md.l)
		for t := 1; t < k; t++ {
			hops := 0.0
			for r := 0; r < p; r++ {
				pos := (r / stride) % k
				destPos := (pos + t) % k
				hops += float64(md.hop(r, r+(destPos-pos)*stride))
			}
			hops /= float64(p)
			total += md.so() + md.copy(b) + md.wire(b, hops) + md.ro() + md.copy(b) + md.comb(b)
		}
		stride *= k
	}
	return total
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
