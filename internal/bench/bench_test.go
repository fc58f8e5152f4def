package bench

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"chime/internal/ycsb"
)

// tinyScale keeps unit tests fast; shape assertions use slightly larger
// runs below where needed.
var tinyScale = Scale{
	LoadN:       4000,
	Ops:         1500,
	ClientSweep: []int{4},
	Clients:     4,
	MNSize:      512 << 20,
	Trials:      3,
}

func TestRunAllSystemsYCSBC(t *testing.T) {
	for _, name := range HeadToHeadSystems {
		t.Run(name, func(t *testing.T) {
			sys, cfg, err := buildSystem(name, tinyScale, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runPoint(sys, cfg, ycsb.WorkloadC, 4, 1200, 1)
			if err != nil {
				t.Fatal(err)
			}
			if r.ThroughputMops <= 0 || r.P50Us <= 0 {
				t.Fatalf("degenerate result: %+v", r)
			}
			// Delegated reads (RDWC) pay no trips, so the average can dip
			// slightly below 1 on skewed workloads.
			if r.TripsPerOp < 0.5 {
				t.Fatalf("implausibly few trips per search: %+v", r)
			}
		})
	}
}

func TestRunMixedWorkloads(t *testing.T) {
	sys, cfg, err := buildSystem("CHIME", tinyScale, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadLoad} {
		if _, err := runPoint(sys, cfg, mix, 4, 800, 2); err != nil {
			t.Fatalf("mix %s: %v", mix.Name, err)
		}
	}
}

// TestClientScanReusesItsBuffer: every scan of a harness client fills the
// one buffer its adapter holds, so a short scan after a long one must
// count its own results and not the long one's tail — for all four
// indexes, whose scans end differently (count reached inside a leaf, a
// group truncated, a radix walk cut off).
func TestClientScanReusesItsBuffer(t *testing.T) {
	for _, name := range HeadToHeadSystems {
		sys, cfg, err := buildSystem(name, tinyScale, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl := sys.NewClient()
		start := cfg.LoadKeys[len(cfg.LoadKeys)/2]
		for _, count := range []int{300, 7, 120, 1} {
			n, err := cl.Scan(start, count)
			if err != nil || n != count {
				t.Errorf("%s: Scan(%d keys) = %d, %v", name, count, n, err)
			}
		}
		if n, err := cl.Scan(cfg.LoadKeys[len(cfg.LoadKeys)-3], 50); err != nil || n != 3 {
			t.Errorf("%s: a scan from the third-last key counts %d, %v; want 3", name, n, err)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	sys, _, err := buildSystem("CHIME", tinyScale, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys, RunConfig{Clients: 0}); err == nil {
		t.Fatal("zero clients must fail")
	}
	if _, err := Run(sys, RunConfig{Clients: 1, OpsPerClient: 1}); err == nil {
		t.Fatal("missing keyspace must fail")
	}
}

// TestShapeCHIMEBeatsShermanReadOnly is the headline claim at small
// scale: with equal cache budgets on a bandwidth-limited fabric, CHIME's
// neighborhood reads beat Sherman's whole-leaf reads on YCSB C.
func TestShapeCHIMEBeatsShermanReadOnly(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 8000
	sc.Ops = 4000
	results := map[string]Result{}
	for _, name := range []string{"CHIME", "Sherman"} {
		sys, cfg, err := buildSystem(name, sc, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runPoint(sys, cfg, ycsb.WorkloadC, 16, sc.Ops, 3)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = r
	}
	if results["CHIME"].ReadBytes >= results["Sherman"].ReadBytes {
		t.Fatalf("CHIME read bytes/op (%0.f) must undercut Sherman (%0.f)",
			results["CHIME"].ReadBytes, results["Sherman"].ReadBytes)
	}
	if results["CHIME"].ThroughputMops <= results["Sherman"].ThroughputMops {
		t.Fatalf("CHIME %.3f Mops must beat Sherman %.3f Mops on YCSB C",
			results["CHIME"].ThroughputMops, results["Sherman"].ThroughputMops)
	}
}

// TestShapeSMARTCacheHungry: SMART's cache grows with the key count far
// beyond CHIME's.
func TestShapeSMARTCacheHungry(t *testing.T) {
	sc := tinyScale
	cache := map[string]int64{}
	for _, name := range []string{"CHIME", "SMART"} {
		sys, cfg, err := buildSystem(name, sc, 1, func(c *SystemConfig) {
			c.CacheBytes = 1 << 30
			c.HotspotBytes = 0
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := sys.NewClient()
		for _, k := range cfg.LoadKeys {
			if _, err := cl.Search(k); err != nil {
				t.Fatal(err)
			}
		}
		cache[name] = sys.CacheBytes()
	}
	if cache["SMART"] < 4*cache["CHIME"] {
		t.Fatalf("SMART cache (%d) should dwarf CHIME's (%d)", cache["SMART"], cache["CHIME"])
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"main",
		"fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c",
		"tab1", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18a", "fig18b", "fig18c", "fig18d", "fig18e", "fig18f",
		"fig19a", "fig19b", "fig19c",
		"scale",
	}
	for _, id := range want {
		if _, err := FindExperiment(id); err != nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := FindExperiment("nope"); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestQuickExperimentsRun smoke-tests the cheap experiments end to end.
func TestQuickExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig3a", "fig3d", "fig16", "fig19a", "fig19b", "fig4c"} {
		exp, err := FindExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := exp.Run(&buf, tinyScale); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestTable1Shape runs the round-trip experiment and sanity-checks the
// best-case numbers against the paper's Table 1. The scan row is held to
// the count the tree itself gives: the experiment takes a census of the
// tree its probes ran on and says how many leaves their 20 keys lie in,
// so 1 + leaves means exactly that many trips with the descent cached — a
// scan that reads one leaf past the last it returns from shows as one more
// — and the uncached column adds the descent a search pays, nothing more.
// An insert is the paper's three trips plus the splits its share of the
// probes meets.
func TestTable1Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinyScale); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "search") || !strings.Contains(out, "insert") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	t.Log("\n" + out)
	row := func(op string) (best, worst float64) {
		t.Helper()
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, op) {
				if _, err := fmt.Sscanf(strings.TrimPrefix(line, op), "%f %f", &best, &worst); err != nil {
					t.Fatalf("row %q: %v", line, err)
				}
				return best, worst
			}
		}
		t.Fatalf("no %s row", op)
		return 0, 0
	}
	var leaves float64
	if _, tail, ok := strings.Cut(out, "keys lie in "); !ok {
		t.Fatal("no census line")
	} else if _, err := fmt.Sscanf(tail, "%f leaves", &leaves); err != nil {
		t.Fatalf("census line %q: %v", tail, err)
	}
	searchBest, searchWorst := row("search")
	scanBest, scanWorst := row("scan")
	if scanBest != leaves {
		t.Errorf("scan best case %.2f trips, want %.2f: the leaves a 20-key scan returns from and not one more", scanBest, leaves)
	}
	if descent := searchWorst - searchBest; math.Abs(scanWorst-scanBest-descent) > 0.015 {
		t.Errorf("scan worst case %.2f trips, want the best case %.2f + the %.2f of an uncached descent", scanWorst, scanBest, descent)
	}
	if insertBest, _ := row("insert"); insertBest < 3 || insertBest > 3.15 {
		t.Errorf("insert best case %.2f trips, want the paper's 3 and at most 0.15 of splits", insertBest)
	}
}

func TestFormatResults(t *testing.T) {
	s := FormatResults([]Result{{System: "X", Mix: "C", Clients: 4, ThroughputMops: 1.5}})
	if !strings.Contains(s, "X") || !strings.Contains(s, "1.500") {
		t.Fatalf("format: %q", s)
	}
}

func TestSortedLoadKeys(t *testing.T) {
	keys := SortedLoadKeys(1000)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("not sorted/unique")
		}
	}
}
