package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares two sets of untraced runs, per workload and
// end-to-end metric. A metric regresses when the change's median is worse
// than the base median by more than its bound. When either side's own
// spread (interquartile range over median) exceeds the bound the metric
// is unresolved instead, unless every run of the change is worse than
// every run of the base. A higher failed-op fraction is a regression too.
// It exits 1 on any regression.
func runCompare(specPath, basePath, changePath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var sp benchSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 2
	}
	base, err := loadResults(basePath)
	if err == nil {
		var change map[string][]result
		if change, err = loadResults(changePath); err == nil {
			return compareSets(sp, base, change, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// loadResults reads untraced run records grouped by workload.
func loadResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema == resultSchema && !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func compareSets(sp benchSpec, base, change map[string][]result, w io.Writer) int {
	names := map[string]bool{}
	for k := range base {
		names[k] = true
	}
	for k := range change {
		names[k] = true
	}
	var workloads []string
	for k := range names {
		workloads = append(workloads, k)
	}
	sort.Strings(workloads)
	regressions := 0
	for _, wl := range workloads {
		b, c := base[wl], change[wl]
		fmt.Fprintf(w, "== %s: base %d runs, change %d runs\n", wl, len(b), len(c))
		if len(b) == 0 || len(c) == 0 {
			fmt.Fprintln(w, "   unresolved: a side has no runs")
			continue
		}
		fb, fc := failFrac(b), failFrac(c)
		status := "ok"
		if fc > fb {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "   %-12s base %.4g  change %.4g  %s\n", "fail_frac", fb, fc, status)
		for _, m := range sp.EndToEnd {
			bv, cv := values(b, m.Name), values(c, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "   %-12s unresolved: not measured on both sides\n", m.Name)
				continue
			}
			bm, cm := median(bv), median(cv)
			sign := 1.0 // positive when a larger value is worse
			if m.Better == "higher" {
				sign = -1
			}
			// Every change run worse (better) than every base run.
			allWorse, allBetter := true, true
			for _, x := range cv {
				for _, y := range bv {
					allWorse = allWorse && sign*(x-y) > 0
					allBetter = allBetter && sign*(x-y) < 0
				}
			}
			wide := spread(bv) > m.Bound || spread(cv) > m.Bound
			status := "ok"
			switch {
			case sign*(cm-bm) > m.Bound*bm && (!wide || allWorse):
				status = "REGRESSION"
				regressions++
			case wide && !allBetter:
				status = "unresolved (spread above bound)"
			}
			fmt.Fprintf(w, "   %-12s base %.4g [%.4g, %.4g] n=%d  change %.4g [%.4g, %.4g] n=%d  change/base %.4f (base %.4g %s, bound %.0f%%)  %s\n",
				m.Name, bm, quantile(bv, 0.25), quantile(bv, 0.75), len(bv),
				cm, quantile(cv, 0.25), quantile(cv, 0.75), len(cv), cm/bm, bm, m.Unit, m.Bound*100, status)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "no regression beyond the bounds")
	return 0
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failFrac(rs []result) float64 {
	att, fail := 0, 0
	for _, r := range rs {
		att += r.Attempted
		fail += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}
