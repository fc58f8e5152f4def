package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"chime/internal/bench"
	"chime/internal/ycsb"
)

// tinyN keeps every workload's pass to a fraction of a second.
const tinyN = 2000

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json is what -spec generates, and the tables it
// is generated from stay inside the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the driver's tables; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}

	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if unit != "" && !unitRe.MatchString(unit) {
			t.Errorf("%s %s: unit %q is not allowed", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		check("workload", w.name, "")
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	var setup *metricDecl
	for i, d := range endToEnd {
		check("end-to-end metric", d.name, d.unit)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if d.name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range perLayer {
		check("per-layer metric", d.name, d.unit)
	}
}

// A tiny-scale pass of every workload emits every declared metric with
// its unit, verifies its outputs, and writes a trace.
func TestTinyPassEmitsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		w := w.scale(tinyN)
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, 1, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, res.FirstErr)
			}
			for _, d := range endToEnd {
				v, ok := res.EndToEnd[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("untraced: metric %s emitted=%v unit=%q, want unit %q", d.name, ok, v.Unit, d.unit)
				}
				if v.Value <= 0 {
					t.Errorf("untraced: end-to-end metric %s = %v, must never be 0", d.name, v.Value)
				}
			}
			if len(res.EndToEnd) != len(endToEnd) {
				t.Errorf("untraced: %d metrics emitted, %d declared", len(res.EndToEnd), len(endToEnd))
			}

			out := filepath.Join(dir, w.name+".trace.jsonl")
			res, err = runTraced(w, 1, 0.02, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced: %d of %d failed: %s", res.Failed, res.Attempted, res.FirstErr)
			}
			for _, d := range perLayer {
				if v, ok := res.PerLayer[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("traced: metric %s emitted=%v unit=%q, want unit %q", d.name, ok, v.Unit, d.unit)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("traced: %d metrics emitted, %d declared", len(res.PerLayer), len(perLayer))
			}
			line, err := json.Marshal(res.contractLine())
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &parsed); err != nil || len(parsed.Metrics) != len(perLayer) {
				t.Errorf("traced result line carries %d metrics (err %v), want the %d per-layer ones", len(parsed.Metrics), err, len(perLayer))
			}
			for _, f := range []string{out, filepath.Join(dir, w.name+".cpu.pprof")} {
				if st, err := os.Stat(f); err != nil || st.Size() == 0 {
					t.Errorf("traced run left no %s (err %v)", filepath.Base(f), err)
				}
			}
		})
	}
}

// -seed feeds the generators: another seed, another op stream; the same
// seed, the same one.
func TestSeedChangesOpStream(t *testing.T) {
	stream := func(seed int64) []ycsb.Op {
		gen, err := ycsb.NewGenerator(ycsb.WorkloadA, ycsb.NewKeySpace(tinyN), genSeed(seed, 3))
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]ycsb.Op, 200)
		for i := range ops {
			ops[i] = gen.Next()
		}
		return ops
	}
	same := func(a, b []ycsb.Op) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(stream(1), stream(1)) {
		t.Error("the same seed gave two op streams")
	}
	if same(stream(1), stream(2)) {
		t.Error("seeds 1 and 2 gave the same op stream")
	}
}

// corruptSystem hands out clients that flip a bit of every value read.
type corruptSystem struct{ bench.System }

func (s corruptSystem) NewClient() bench.Client { return corruptClient{s.System.NewClient()} }

type corruptClient struct{ bench.Client }

func (c corruptClient) Search(key uint64) ([]byte, error) {
	v, err := c.Client.Search(key)
	if err == nil && len(v) > 0 {
		v = append([]byte(nil), v...)
		v[0] ^= 0x80
	}
	return v, err
}

// A value that is neither the load value nor the update value counts as a
// failed op, in the measured rounds and in the read-back.
func TestValueMismatchFails(t *testing.T) {
	w, _ := workloadByName("c_fit")
	in, err := newInstance(w.scale(tinyN), 1, false, newSpeedRef())
	if err != nil {
		t.Fatal(err)
	}
	in.sys = corruptSystem{in.sys}
	for ci := range in.clients {
		in.clients[ci] = corruptClient{in.clients[ci]}
	}
	ops, failed, firstErr := in.measure(0.01, nil).totals()
	if failed != ops || firstErr == nil {
		t.Errorf("measured rounds: %d of %d corrupted reads failed (err %v), want all", failed, ops, firstErr)
	}
	attempted, failed, _ := in.verify()
	if failed != attempted-1 { // the census scan counts keys, not values
		t.Errorf("verify: %d of %d failed, want every read-back", failed, attempted)
	}
}

// The driver may not lean on what ROADMAP items 1, 2 and 5 delete: the
// scheduler knobs and the experiments' Run*/*Row/Format*/Marshal* helpers.
func TestNoForbiddenSymbols(t *testing.T) {
	forbidden := regexp.MustCompile(`\b(Scheduler\w*|Lanes|QuantumRTTs|GateCap|bench\.(Run|Format|Marshal)\w*|bench\.\w+Row)\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := forbidden.FindString(line); m != "" {
				t.Errorf("%s:%d mentions %s", f, i+1, m)
			}
		}
	}
}

func TestSpreadIsPythonsExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	// write stores a set in which every end-to-end metric of every
	// workload reads base*scale[metric], over the given run-to-run noise.
	write := func(name string, scale map[string]float64, noise []float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for _, n := range noise {
				res := &result{Workload: w.name, Correct: true, Attempted: 1, EndToEnd: metricSet{}}
				for _, d := range endToEnd {
					s := 1.0
					if f, ok := scale[d.name]; ok {
						s = f
					}
					res.EndToEnd.set(endToEnd, d.name, 100*s*n)
				}
				if err := appendJSON(path, res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := []float64{1, 1.001, 0.999, 1.002, 0.998}
	base := write("a.json", nil, steady)

	var out bytes.Buffer
	ok, err := compareFiles(&out, base, write("same.json", nil, steady))
	if err != nil || !ok || strings.Contains(out.String(), "REGRESSION") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("equal sets: ok=%v err=%v\n%s", ok, err, out.String())
	}

	out.Reset()
	ok, err = compareFiles(&out, base, write("slow.json", map[string]float64{"host_ns_per_op": 1.5, "sim_mops": 0.5}, steady))
	if err != nil || ok {
		t.Errorf("a 50%% slower set passed: ok=%v err=%v", ok, err)
	}
	for _, want := range []string{"host_ns_per_op", "sim_mops"} {
		if !regexp.MustCompile(want + `.*REGRESSION`).MatchString(out.String()) {
			t.Errorf("no REGRESSION verdict for %s:\n%s", want, out.String())
		}
	}

	out.Reset()
	ok, err = compareFiles(&out, base, write("noisy.json", nil, []float64{1, 1.4, 0.6, 1.3, 0.7}))
	if err != nil || !ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set noisier than the bounds must read unresolved and still pass: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

// A window is corrected by the kernel runs next to it, each kernel at its
// median run there, and the window is clipped to the runs made.
func TestSlowdownIsLocal(t *testing.T) {
	ref := &speedRef{}
	for i := 0; i < 4*refRepeats; i++ {
		slow := 1.0
		if i >= 2*refRepeats {
			slow = 2 // the machine halves its speed half-way
		}
		ref.loadNs = append(ref.loadNs, slow*refLoadNs)
		ref.handoffNs = append(ref.handoffNs, slow*refHandoffNs)
	}
	near := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }
	twice := math.Pow(2, refLoadExp+refHandoffExp)
	if got := ref.around(refRepeats); !near(got, 1) {
		t.Errorf("slowdown around a window in the fast half is %v, want 1", got)
	}
	if got := ref.around(3 * refRepeats); !near(got, twice) {
		t.Errorf("slowdown around a window in the slow half is %v, want %v", got, twice)
	}
	if got := ref.around(4 * refRepeats); !near(got, twice) {
		t.Errorf("slowdown around a window no sample follows is %v, want %v", got, twice)
	}
	if got := ref.slowdownOver(7, 3); got != 1 {
		t.Errorf("slowdown over no kernel runs is %v, want 1", got)
	}
}
