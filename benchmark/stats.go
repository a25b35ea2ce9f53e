package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a timing may report beside its
// median, lowest first.
var tailCandidates = []float64{90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it — p99 needs n ≥ 1000, p90 n ≥ 100 — and
// 0 when even p90 does not (n < 100): a "p99" over 50 samples is the
// maximum under another name.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		// The tolerance lets 10000·(1-0.999) count as 10, not 9.999….
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timing is how every pooled latency is reported: the median, the tail
// percentile tailPercentile allows (TailPct 0 when none), and the count.
type timing struct {
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	N       int     `json:"n"`
}

// summarize pools samples (any unit) into a timing. It sorts in place.
func summarize(samples []float64) timing {
	sort.Float64s(samples)
	t := timing{P50: quantile(samples, 0.5), N: len(samples)}
	if p := tailPercentile(len(samples)); p > 0 {
		t.TailPct = p
		t.Tail = quantile(samples, p/100)
	}
	return t
}

// spread is the run-to-run scatter of a metric as a share of its median:
// the interquartile range for four or more runs (the rule the acceptance
// driver applies), the full range for two or three, 0 for a single run.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = exclusiveQuartiles(s)
	}
	return math.Abs((hi - lo) / med)
}

// exclusiveQuartiles matches Python's statistics.quantiles(v, n=4): the
// first and third cut points at positions (n+1)/4 and 3(n+1)/4.
func exclusiveQuartiles(sorted []float64) (q1, q3 float64) {
	at := func(pos float64) float64 {
		n := len(sorted)
		j := int(math.Floor(pos))
		delta := pos - float64(j)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return sorted[j-1] + delta*(sorted[j]-sorted[j-1])
	}
	n := float64(len(sorted))
	return at((n + 1) / 4), at(3 * (n + 1) / 4)
}
