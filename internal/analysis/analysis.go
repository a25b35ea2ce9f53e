// Package analysis provides the paper's analytical side: the asymptotic
// characteristic-parameter formulas of Figure 2, and an exact pure oracle
// for Br_Lin's communication pattern (holder growth, operation counts,
// traffic volume) computed without running the simulator. The oracle
// cross-validates the discrete-event engine — tests assert that the
// simulator's measured per-iteration activity matches the oracle exactly —
// and lets callers predict how a source distribution will grow before
// paying for a simulation.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/topology"
)

// Fig2Row is one row of the paper's Figure 2: the asymptotic
// characteristic parameters of an algorithm on the equal distribution,
// with unit constants. Values are predictions to compare against measured
// metrics.Params, not exact counts.
type Fig2Row struct {
	Algorithm  string
	Congestion float64
	Wait       float64
	SendRec    float64
	AvgMsgLen  float64
	AvgActive  float64
	// Formula holds the paper's symbolic forms for documentation.
	Formula string
}

// Fig2Prediction returns the paper's Figure 2 row for an algorithm on the
// equal distribution of s sources with message length L on p processors.
// Supported algorithms: "2-Step", "PersAlltoAll", "Br_Lin" (the figure's
// rows). Br_Lin distinguishes s a power of two from other s, as the paper
// does.
func Fig2Prediction(algorithm string, p, s, l int) (Fig2Row, error) {
	if p <= 0 || s <= 0 || s > p || l < 0 {
		return Fig2Row{}, fmt.Errorf("analysis: invalid instance p=%d s=%d L=%d", p, s, l)
	}
	logp := math.Log2(float64(p))
	if logp < 1 {
		logp = 1
	}
	fs, fl, fp := float64(s), float64(l), float64(p)
	switch algorithm {
	case "2-Step":
		return Fig2Row{
			Algorithm:  algorithm,
			Congestion: fs,
			Wait:       1,
			SendRec:    fp,
			AvgMsgLen:  fs * fl,
			AvgActive:  fp / logp,
			Formula:    "congestion O(s), wait O(1), send/rec O(p), av_msg O(sL), av_act O(p/log p)",
		}, nil
	case "PersAlltoAll":
		return Fig2Row{
			Algorithm:  algorithm,
			Congestion: 1,
			Wait:       1,
			SendRec:    fp,
			AvgMsgLen:  fl,
			AvgActive:  fp,
			Formula:    "congestion O(1), wait O(1), send/rec O(p), av_msg O(L), av_act O(p)",
		}, nil
	case "Br_Lin":
		row := Fig2Row{
			Algorithm:  algorithm,
			Congestion: 1,
			Wait:       logp,
			SendRec:    logp,
		}
		if s&(s-1) == 0 { // power of two: slow early growth
			logs := math.Log2(fs)
			row.AvgMsgLen = fs * fl
			row.AvgActive = fp/logp + fs*logs/logp
			row.Formula = "s=2^l: av_msg O(sL), av_act O(p/log p + s·log s/log p)"
		} else {
			row.AvgMsgLen = fs * fl / logp
			row.AvgActive = fp / logp * math.Log2(fs+1)
			row.Formula = "s≠2^l: av_msg O(sL/log p), av_act O(p·log s/log p)"
		}
		return row, nil
	}
	return Fig2Row{}, fmt.Errorf("analysis: no Figure 2 row for %q", algorithm)
}

// Oracle is the exact replay of Br_Lin's communication pattern on one
// broadcast instance: per-iteration activity and operation counts, and the
// final traffic volume, computed purely (no simulator, no goroutines).
type Oracle struct {
	// Active is the number of processors that send or receive in each
	// iteration — the quantity metrics.ActiveProfile measures.
	Active []int
	// Holders is the number of message-holding processors after each
	// iteration.
	Holders []int
	// Sends is the total number of point-to-point sends.
	Sends int
	// Bytes is the total payload volume moved, assuming every source
	// message has length L.
	Bytes int64
}

// BrLinOracle replays Br_Lin on the spec with uniform message length L.
// The replay follows exactly the pairing rules of core's compiler.line: pairs
// (lo+i, lo+i+h) with h=⌈n/2⌉ exchange or single-send depending on
// holdings, odd segments one-way the unpaired middle to the segment's last
// position, segments halve until singletons.
func BrLinOracle(spec core.Spec, l int) (*Oracle, error) {
	if err := spec.Validate(spec.P()); err != nil {
		return nil, err
	}
	p := spec.P()
	mesh := topology.MustMesh2D(spec.Rows, spec.Cols)
	holds := make([]bool, p)
	size := make([]int64, p) // bundle bytes at each line position
	for pos := 0; pos < p; pos++ {
		rank := spec.Indexing.RankToNode(mesh, pos)
		if spec.IsSource(rank) {
			holds[pos] = true
			size[pos] = int64(l)
		}
	}
	levels, sends, bytes := replayHalving(holds, size)
	o := &Oracle{Sends: sends, Bytes: bytes}
	// Rebuild per-level holder counts: a position holds from the level
	// it first becomes active onward (holders only grow), seeded by the
	// initial sources.
	holding := make([]bool, p)
	for pos := 0; pos < p; pos++ {
		rank := spec.Indexing.RankToNode(mesh, pos)
		holding[pos] = spec.IsSource(rank)
	}
	for _, active := range levels {
		nActive := 0
		for i, a := range active {
			if a {
				nActive++
				holding[i] = true
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
	return o, nil
}

// GrowthEfficiency scores a holder profile against ideal doubling: 1.0
// means the holder count doubled every iteration until saturation (the
// design objective of Section 1), lower values mean stalled iterations.
func GrowthEfficiency(holders []int, s, p int) float64 {
	if len(holders) == 0 || s <= 0 || p <= 0 {
		return 0
	}
	achieved := 0.0
	ideal := 0.0
	cur := s
	for _, h := range holders {
		want := cur * 2
		if want > p {
			want = p
		}
		if cur < p {
			ideal += float64(want - cur)
			if h > cur {
				achieved += float64(h - cur)
			}
		}
		cur = h
	}
	if ideal == 0 {
		return 1
	}
	eff := achieved / ideal
	if eff > 1 {
		eff = 1
	}
	return eff
}
