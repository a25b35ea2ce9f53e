package analysis

import (
	"repro/internal/core"
)

// replayHalving replays the recursive-halving pattern of core's compiler.line on
// one line: holds[i] and size[i] describe position i's current bundle; the
// function mutates them to the final state and reports, per level, which
// positions were active, plus total sends and payload bytes. The rules
// mirror core's compiler.line exactly (pairs at ⌈n/2⌉, single send when only one
// side holds, odd-segment one-way from the unpaired middle to the
// segment's last position).
func replayHalving(holds []bool, size []int64) (levels [][]bool, sends int, bytes int64) {
	n := len(holds)
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
			return levels, sends, bytes
		}
		active := make([]bool, n)
		var next []seg
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + 1) / 2
			for i := 0; i < g.n-h; i++ {
				a, b := g.lo+i, g.lo+i+h
				switch {
				case holds[a] && holds[b]:
					sends += 2
					bytes += size[a] + size[b]
					size[a], size[b] = size[a]+size[b], size[a]+size[b]
					active[a], active[b] = true, true
				case holds[a]:
					sends++
					bytes += size[a]
					size[b] += size[a]
					holds[b] = true
					active[a], active[b] = true, true
				case holds[b]:
					sends++
					bytes += size[b]
					size[a] += size[b]
					holds[a] = true
					active[a], active[b] = true, true
				}
			}
			if g.n%2 == 1 {
				u, tgt := g.lo+h-1, g.lo+g.n-1
				if holds[u] && u != tgt {
					sends++
					bytes += size[u]
					size[tgt] += size[u]
					holds[tgt] = true
					active[u], active[tgt] = true, true
				}
			}
			next = append(next, seg{g.lo, h}, seg{g.lo + h, g.n - h})
		}
		segs = next
		levels = append(levels, active)
	}
}

// BrXYOracle replays Br_xy_source (sourceRule=true) or Br_xy_dim
// (sourceRule=false) on the spec with uniform message length L: phase one
// runs the halving pattern inside every line of the first dimension,
// phase two inside every line of the second. Active counts, sends and
// bytes must match the simulator exactly (tests assert this).
func BrXYOracle(spec core.Spec, l int, sourceRule bool) (*Oracle, error) {
	if err := spec.Validate(spec.P()); err != nil {
		return nil, err
	}
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

	p := spec.P()
	o := &Oracle{}
	holding := make([]bool, p)
	for _, src := range spec.Sources {
		holding[src] = true
	}
	// mergePhase replays every line of one phase in lockstep and appends
	// the merged per-iteration counts.
	mergePhase := func(lines [][]int, holds [][]bool, sizes [][]int64) {
		var phaseLevels [][]bool // global active flags per level
		for li, line := range lines {
			levels, sends, bytes := replayHalving(holds[li], sizes[li])
			o.Sends += sends
			o.Bytes += bytes
			for lvl, active := range levels {
				for len(phaseLevels) <= lvl {
					phaseLevels = append(phaseLevels, make([]bool, p))
				}
				for pos, a := range active {
					if a {
						phaseLevels[lvl][line[pos]] = true
					}
				}
			}
		}
		for _, active := range phaseLevels {
			nActive := 0
			for rank, a := range active {
				if a {
					nActive++
					holding[rank] = true
				}
			}
			nHold := 0
			for _, h := range holding {
				if h {
					nHold++
				}
			}
			o.Active = append(o.Active, nActive)
			o.Holders = append(o.Holders, nHold)
		}
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

	// Phase 1.
	var lines1 [][]int
	if rowsFirst {
		for i := 0; i < r; i++ {
			lines1 = append(lines1, rowLine(i))
		}
	} else {
		for j := 0; j < c; j++ {
			lines1 = append(lines1, colLine(j))
		}
	}
	holds1 := make([][]bool, len(lines1))
	sizes1 := make([][]int64, len(lines1))
	for li, line := range lines1 {
		holds1[li] = make([]bool, len(line))
		sizes1[li] = make([]int64, len(line))
		for pos, rank := range line {
			if spec.IsSource(rank) {
				holds1[li][pos] = true
				sizes1[li][pos] = int64(l)
			}
		}
	}
	mergePhase(lines1, holds1, sizes1)

	// Phase 2: lines of the other dimension; a line position holds iff
	// its phase-1 line contained any source, with the phase-1 line's
	// total volume as its bundle size.
	var lines2 [][]int
	var lineVolume func(rank int) (bool, int64)
	if rowsFirst {
		for j := 0; j < c; j++ {
			lines2 = append(lines2, colLine(j))
		}
		lineVolume = func(rank int) (bool, int64) {
			i := rank / c
			return perRow[i] > 0, int64(perRow[i]) * int64(l)
		}
	} else {
		for i := 0; i < r; i++ {
			lines2 = append(lines2, rowLine(i))
		}
		lineVolume = func(rank int) (bool, int64) {
			j := rank % c
			return perCol[j] > 0, int64(perCol[j]) * int64(l)
		}
	}
	holds2 := make([][]bool, len(lines2))
	sizes2 := make([][]int64, len(lines2))
	for li, line := range lines2 {
		holds2[li] = make([]bool, len(line))
		sizes2[li] = make([]int64, len(line))
		for pos, rank := range line {
			h, v := lineVolume(rank)
			holds2[li][pos] = h
			if h {
				sizes2[li][pos] = v
			}
		}
	}
	mergePhase(lines2, holds2, sizes2)
	return o, nil
}
