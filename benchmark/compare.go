package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readResults loads a -json file: one result per line, any number of
// runs per workload. The runs of one file are one "set".
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Manifest.Trace {
			continue // end-to-end figures come from untraced runs only
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (exclusive method); 0 with fewer than two values.
func spread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians, how much worse b is than a, and the bound. ok is false when
// some metric is worse by more than its bound, or a run was incorrect.
// A pair whose own spread exceeds the bound is unresolved, not passed.
func compareFiles(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok = true
	fmt.Fprintf(w, "%-11s %-20s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "a(median)", "b(median)", "worse%", "bound%", "spreadA%", "spreadB%", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-11s missing from one set (a: %d runs, b: %d runs)\n", wl.name, len(ra), len(rb))
			ok = false
			continue
		}
		for _, r := range append(append([]*result(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-11s a run failed verification: %d of %d ops failed\n", wl.name, r.Failed, r.Attempted)
				ok = false
			}
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.name), values(rb, d.name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "REGRESSION"
				ok = false
			case max(sa, sb) > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-11s %-20s %14.4f %14.4f %+9.2f %7.1f %8.2f %8.2f  %s\n",
				wl.name, d.name, ma, mb, 100*worse, 100*d.bound, 100*sa, 100*sb, verdict)
		}
	}
	return ok, nil
}

func values(runs []*result, metric string) []float64 {
	v := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, found := r.EndToEnd[metric]; found {
			v = append(v, m.Value)
		}
	}
	return v
}
