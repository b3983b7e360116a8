package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// runSet is the untraced runs of one -out file: the values of each
// end-to-end metric per workload, and the failure counts.
type runSet struct {
	values    map[string]map[string][]float64 // workload → metric → one value per run
	attempted map[string]int
	failed    map[string]int
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if rs.values[rec.Workload] == nil {
			rs.values[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], v.Value)
		}
		rs.attempted[rec.Workload] += rec.Result.Attempted
		rs.failed[rec.Workload] += rec.Result.Failed
	}
	return rs, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4);
// with fewer than four values it is (max−min)/median.
func spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	med := percentile(s, 0.5)
	if len(s) < 2 || med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	quartile := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// compareFiles prints, per (metric, workload), both medians, how much worse
// b is than a, the bound, and the verdict; the exit code is non-zero when a
// bound is exceeded or b fails more often than a.
func compareFiles(pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Printf("%-12s %-11s %12s %12s %8s %7s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "iqr_a", "iqr_b", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values[w.name][def.Name], b.values[w.name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := "within"
			switch {
			case max(sa, sb) > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "exceeds"
				code = 1
			}
			fmt.Printf("%-12s %-11s %12.6g %12.6g %+7.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
				w.name, def.Name, ma, mb, 100*worse, 100*def.Bound, 100*sa, 100*sb, verdict)
		}
		ratio := func(rs *runSet) float64 { return float64(rs.failed[w.name]) / float64(max(rs.attempted[w.name], 1)) }
		if ratio(b) > ratio(a) {
			fmt.Printf("%-12s fail ratio rose from %g to %g\n", w.name, ratio(a), ratio(b))
			code = 1
		}
	}
	return code
}
