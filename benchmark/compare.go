package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// minRuns is the least runs a side needs before its spread means
// anything: with fewer, nothing can be called unchanged.
const minRuns = 3

// verdict judges one end-to-end metric of one workload: a are the base
// side's runs, b the changed side's. worse is how much b's median is
// worse than a's as a share of a's; it regresses when that exceeds the
// bound. A verdict within the bound still cannot be called unchanged
// when either side's own spread (quartile distance over median) exceeds
// the bound, or is unknown because the side has fewer than minRuns
// runs: that is unresolved.
func verdict(d specMetric, a, b []float64) (worse, spread float64, status string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if d.Better == "higher" {
		worse = -worse
	}
	spread = max(iqrShare(a), iqrShare(b))
	switch {
	case worse > d.Bound:
		status = "REGRESSED"
	case spread > d.Bound || len(a) < minRuns || len(b) < minRuns:
		status = "unresolved"
	default:
		status = "unchanged"
	}
	return
}

// compareFiles applies BENCHMARK.json's bounds to the untraced runs of
// two result files and fails on any end-to-end metric outside its bound.
// Under each metric its whole-run counterpart is judged by the same bound
// and printed, but never fails the comparison.
func compareFiles(declared spec, pathA, pathB string) error {
	ra, err := readRecords(pathA)
	if err != nil {
		return err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return err
	}
	values := func(recs []record) map[string]map[string][]float64 {
		out := make(map[string]map[string][]float64)
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for _, set := range []map[string]metric{r.Metrics, r.Whole} {
				for k, m := range set {
					out[r.Workload][k] = append(out[r.Workload][k], m.Value)
				}
			}
		}
		return out
	}
	va, vb := values(ra), values(rb)
	var names []string
	for w := range va {
		if vb[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no untraced workload", pathA, pathB)
	}
	regressed := 0
	fmt.Printf("%-14s %-30s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "base", "change", "worse", "spread", "bound", "verdict")
	for _, w := range names {
		for _, d := range declared.EndToEnd {
			a, b := va[w][d.Name], vb[w][d.Name]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s: metric %s missing from a result file", w, d.Name)
			}
			judge := func(name, note string, a, b []float64) string {
				worse, spread, status := verdict(d, a, b)
				fmt.Printf("%-14s %-30s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s%s (n=%d/%d)\n",
					w, name, median(a), median(b), 100*worse, 100*spread, 100*d.Bound, status, note, len(a), len(b))
				return status
			}
			if judge(d.Name, "", a, b) == "REGRESSED" {
				regressed++
			}
			if a, b := va[w]["whole."+d.Name], vb[w]["whole."+d.Name]; len(a) > 0 && len(b) > 0 {
				judge("whole."+d.Name, ", not gating", a, b)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics are outside their bound", regressed)
	}
	return nil
}
