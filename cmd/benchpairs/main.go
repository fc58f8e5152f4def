// Command benchpairs measures the working tree against a parent revision
// the way a performance claim has to be made (EXPERIMENTS.md "host cost
// of the simulator"): the parent's committed files are unpacked into a
// directory of their own under .bench_build/, `bash benchmark/run.sh` is
// run in the two checkouts alternately — which side goes first alternates
// too — one seed per pair, and then it prints the driver's own -compare
// table (medians, how much worse, both sides' spread, verdict) followed,
// per workload and end-to-end metric, by what -compare does not show: how
// many pairs the change won, and whether every run of the change reads
// better than every run of the parent (what resolves a cell whose spread
// exceeds its bound).
//
//	make bench-pairs REV=<parent> [W=<workload>] [N=10]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json the summary needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// run is one line of a -json result file.
type run struct {
	Workload string `json:"workload"`
	Failed   int64  `json:"failed"`
	EndToEnd map[string]struct {
		Value float64 `json:"value"`
	} `json:"end_to_end"`
	Manifest struct {
		Seed  int64 `json:"seed"`
		Trace bool  `json:"trace"`
	} `json:"manifest"`
}

func main() {
	rev := flag.String("rev", "", "parent revision to measure against (required)")
	workload := flag.String("w", "all", "workload to run, or all")
	pairs := flag.Int("n", 10, "pairs of runs; pair i uses seed i on both sides")
	flag.Parse()
	if *rev == "" || *pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -rev <parent> [-w <workload>] [-n <pairs>]   (from the root of the checkout)")
		os.Exit(2)
	}
	if err := measure(*rev, *workload, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func measure(rev, workload string, pairs int) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var sp spec
	if raw, err := os.ReadFile("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the root of the checkout: %w", err)
	} else if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	out := filepath.Join(root, ".bench_build", "pairs")
	parent := filepath.Join(out, "parent")
	if err := os.RemoveAll(out); err != nil {
		return err
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	// The parent's committed files and nothing else, as the driver that
	// judges a PR checks a commit out: no worktree entry is left in .git.
	unpack := exec.Command("sh", "-c", `git archive --format=tar "$0" | tar -x -C "$1"`, rev, parent)
	unpack.Stderr = os.Stderr
	if err := unpack.Run(); err != nil {
		return fmt.Errorf("unpacking %s: %w", rev, err)
	}

	files := map[string]string{"parent": filepath.Join(out, "parent.jsonl"), "change": filepath.Join(out, "change.jsonl")}
	dirs := map[string]string{"parent": parent, "change": root}
	for i := 1; i <= pairs; i++ {
		order := []string{"parent", "change"}
		if i%2 == 0 {
			slices.Reverse(order)
		}
		for _, side := range order {
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", i, pairs, side)
			cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
				"--seed", fmt.Sprint(i), "--trace", "0", "-json", files[side])
			cmd.Dir, cmd.Stderr = dirs[side], os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s, seed %d: %w", side, i, err)
			}
		}
	}

	// The driver's verdicts first. It exits non-zero on a regression and
	// on workloads that were not run (lines this drops); the table is the
	// point either way.
	cmp := exec.Command("bash", "benchmark/run.sh", "-compare", files["parent"], files["change"])
	cmp.Stderr = os.Stderr
	table, cmpErr := cmp.Output()
	for _, line := range strings.SplitAfter(string(table), "\n") {
		if !strings.Contains(line, "missing from one set") {
			fmt.Print(line)
		}
	}
	if cmpErr != nil {
		fmt.Printf("(-compare: %v)\n", cmpErr)
	}

	a, err := readRuns(files["parent"])
	if err != nil {
		return err
	}
	b, err := readRuns(files["change"])
	if err != nil {
		return err
	}
	fmt.Printf("\n%-11s %-20s %6s  %s\n", "workload", "metric", "wins", "every run of the change better")
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(ra) != len(rb) {
			continue
		}
		var failedA, failedB int64
		for i := range ra {
			failedA, failedB = failedA+ra[i].Failed, failedB+rb[i].Failed
		}
		fmt.Printf("%-11s failed ops: parent %d, change %d\n", wl.Name, failedA, failedB)
		for _, m := range sp.EndToEnd {
			better := func(x, y run) bool { // x reads better than y
				vx, vy := x.EndToEnd[m.Name].Value, y.EndToEnd[m.Name].Value
				if m.Better == "higher" {
					return vx > vy
				}
				return vx < vy
			}
			wins, all := 0, true
			for i, x := range rb {
				if better(x, ra[i]) {
					wins++
				}
				for _, y := range ra {
					all = all && better(x, y)
				}
			}
			fmt.Printf("%-11s %-20s %3d/%-2d  %v\n", wl.Name, m.Name, wins, len(ra), all)
		}
	}
	return nil
}

// readRuns loads a -json file, untraced runs only, per workload in seed
// order so that index i of both sides is pair i.
func readRuns(path string) (map[string][]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]run{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Manifest.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		slices.SortStableFunc(rs, func(x, y run) int { return int(x.Manifest.Seed - y.Manifest.Seed) })
	}
	return out, sc.Err()
}
