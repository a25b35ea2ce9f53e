package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the comparer needs.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// verdict of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread exceeds the bound: neither "unchanged" nor "regressed" can be claimed
	verdictInfo       = "info"       // no bound in BENCHMARK.json; shown, never gated
)

// judge applies one metric's bound to two sets of runs. Where the spread
// within either set exceeds the bound the sets cannot be told apart by
// their medians, so the row is unresolved unless every run of one side
// reads better than every run of the other.
func judge(d metricDef, a, b []float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	if d.Bound == 0 && d.Name != "fail_share" {
		return ratio, verdictInfo
	}
	sign := 1.0 // worse = larger
	if d.Better == "higher" {
		sign = -1
	}
	worseBy := sign * (mb - ma)
	if ma != 0 {
		worseBy /= ma
	}
	regressed := worseBy > d.Bound
	if d.Name == "fail_share" { // any rise counts, in any run: a median would hide one failing run among three
		_, worstA := minMax(a)
		_, worstB := minMax(b)
		regressed = worstB > worstA
	}
	if sp := max(spread(a), spread(b)); sp > d.Bound && d.Bound > 0 {
		// In "badness" (sign·value, larger is worse) the two sets
		// separate when one's best run is beyond the other's worst.
		bestA, worstA := minMax(scaled(a, sign))
		bestB, worstB := minMax(scaled(b, sign))
		switch {
		case worstB < bestA:
			return ratio, verdictOK
		case bestB > worstA && regressed:
			return ratio, verdictWorse
		}
		return ratio, verdictUnresolved
	}
	if regressed {
		return ratio, verdictWorse
	}
	return ratio, verdictOK
}

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = f * x
	}
	return out
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func loadResults(paths []string) ([]runResult, error) {
	var out []runResult
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// collect gathers, per workload and end-to-end metric, one value per run.
func collect(runs []runResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range runs {
		for _, w := range run.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for name, v := range w.EndToEnd {
				out[w.Name][name] = append(out[w.Name][name], v)
			}
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, their ratio and the verdict, and reports whether any bounded
// metric regressed or fail_share rose.
func compareFiles(w io.Writer, boundsPath string, aPaths, bPaths []string) (regressed bool, err error) {
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %v", boundsPath, err)
	}
	defs := map[string]metricDef{
		"fail_share":   {Name: "fail_share", Better: "lower"},
		"goodput_mb_s": {Name: "goodput_mb_s", Better: "higher"},
		"op_p99_ms":    {Name: "op_p99_ms", Better: "lower"},
	}
	for _, d := range spec.EndToEnd {
		defs[d.Name] = d
	}
	aRuns, err := loadResults(aPaths)
	if err != nil {
		return false, err
	}
	bRuns, err := loadResults(bPaths)
	if err != nil {
		return false, err
	}
	a, b := collect(aRuns), collect(bRuns)
	workloadNames := make([]string, 0, len(a))
	for name := range a {
		workloadNames = append(workloadNames, name)
	}
	sort.Strings(workloadNames)
	fmt.Fprintf(w, "A: %d run(s)  B: %d run(s)  ratio = B/A of medians; spread = IQR/median (range/median under 4 runs)\n", len(aRuns), len(bRuns))
	fmt.Fprintf(w, "%-26s %-16s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "A", "B", "ratio", "spread", "bound", "verdict")
	for _, wn := range workloadNames {
		metricNames := make([]string, 0, len(a[wn]))
		for name := range a[wn] {
			metricNames = append(metricNames, name)
		}
		sort.Strings(metricNames)
		for _, mn := range metricNames {
			av, bv := a[wn][mn], b[wn][mn]
			if len(bv) == 0 {
				fmt.Fprintf(w, "%-26s %-16s %14.4f %14s %8s %8s %8s  %s\n", wn, mn, median(av), "missing", "", "", "", verdictWorse)
				regressed = true
				continue
			}
			d := defs[mn]
			ratio, v := judge(d, av, bv)
			if v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(w, "%-26s %-16s %14.4f %14.4f %8.3f %7.1f%% %7.1f%%  %s\n",
				wn, mn, median(av), median(bv), ratio, 100*max(spread(av), spread(bv)), 100*d.Bound, v)
		}
	}
	if regressed {
		fmt.Fprintln(w, strings.Repeat("-", 40)+"\nREGRESSION: at least one bounded end-to-end metric is worse, or fail_share rose")
	}
	return regressed, nil
}
