package bench

import (
	"strings"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/offroute"
	"chime/internal/ycsb"
)

// TestOffloadOffMeansOff pins the "off means off" contract of the
// offload plane end to end: a zero-value SystemConfig (Offload field
// never touched), an explicit ModeOff, and a ModeOff run on a fabric
// whose MN compute model was configured with deliberately odd knobs
// must all be bit-identical — the router nil-checks on every client hot
// path and the idle MN CPUs must not advance any clock. All three must
// report zero offloads, fallbacks and MN utilization.
func TestOffloadOffMeansOff(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000

	measure := func(mut func(*SystemConfig)) (Result, string) {
		t.Helper()
		sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
			c.LoadClients = 1
			if mut != nil {
				mut(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := runPoint(sys, cfg, ycsb.WorkloadB, 1, 800, 9)
		if err != nil {
			t.Fatal(err)
		}
		return r, fingerprint(cfg.Fabric, r)
	}

	zero, fpZero := measure(nil)
	_, fpOff := measure(func(c *SystemConfig) { c.Offload = offroute.ModeOff })
	_, fpKnobs := measure(func(c *SystemConfig) {
		c.Offload = offroute.ModeOff
		fcfg := testbedConfig(1, sc.MNSize)
		fcfg.MNCPUs = 1
		fcfg.MNServiceTime = 5000 // ns; must be invisible: nothing dispatches to the MN CPU
		c.Fabric = dmsim.MustNewFabric(fcfg)
	})

	if fpZero != fpOff || fpZero != fpKnobs {
		t.Fatalf("ModeOff runs diverged: zero=%s explicit=%s knobs=%s", fpZero, fpOff, fpKnobs)
	}
	if zero.OffloadsPerOp != 0 || zero.MNFallbacksPerOp != 0 || zero.MNUtilization != 0 {
		t.Fatalf("ModeOff run shows MN activity: %+v", zero)
	}
}

// TestOffloadAdaptiveSameSeedBitIdentical pins bench-level determinism
// of the full offload stack under the adaptive router: the same seed
// must produce bit-identical rows (Result + NIC + MN-CPU + frontier
// fingerprint) on a write-bearing mix, for one client and for eight
// that contend.
func TestOffloadAdaptiveSameSeedBitIdentical(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000
	for _, clients := range []int{1, 8} {
		pt := point{offload: offroute.ModeAdaptive, mix: ycsb.WorkloadB, clients: clients, ops: 800, seed: 23}
		if _, _, err := twice(func() (Result, string, error) { return pt.run("CHIME", sc) }); err != nil {
			t.Errorf("%d clients: same-seed adaptive runs: %v", clients, err)
		}
	}
}

// TestRunOffloadSweep smoke-runs the registered experiment shape on a
// reduced matrix: static modes only, and checks the Table-1-style
// accounting — offloaded point ops take ~1 round trip, off rows never
// touch the MN CPU. Every row, single-client or not, has been double-run
// to the bit: runOffload fails on a point that does not reproduce.
func TestRunOffloadSweep(t *testing.T) {
	sc := Scale{LoadN: 2500, Ops: 800, Clients: 4, MNSize: 512 << 20}
	opts := offloadOptions{modes: []offroute.Mode{offroute.ModeOff, offroute.ModeAlways}}
	rows, err := runOffload(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 4 sections x 2 static modes x 4 systems.
	if want := 4 * 2 * len(HeadToHeadSystems); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.ThroughputMops <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.Fingerprint == "" {
			t.Errorf("row without a fingerprint: %+v", r)
		}
		total := map[string]int{"trips": sc.Ops / 4, "deep": sc.Ops, "saturate": sc.Ops, "mixed": sc.Ops / 2}[r.Section]
		if want := int64(total / r.Clients * r.Clients); r.Ops != want {
			t.Errorf("row ran %d ops, want %d: %+v", r.Ops, want, r)
		}
		switch r.Mode {
		case "off":
			if r.OffloadsPerOp != 0 || r.MNUtilization != 0 {
				t.Errorf("off row shows MN activity: %+v", r)
			}
		case "on":
			// Read-only sections offload every op, one round trip each;
			// the mixed section's 5% updates may take a non-offloadable
			// path (e.g. SMART's replace-leaf writes), so only require the
			// read share there.
			if r.Section == "mixed" {
				if r.OffloadsPerOp < 0.9 {
					t.Errorf("on row barely offloaded: %+v", r)
				}
			} else if r.OffloadsPerOp != 1 || r.TripsPerOp != 1 {
				t.Errorf("offloaded read-only row took %v offloads and %v trips per op, want 1 and 1: %+v",
					r.OffloadsPerOp, r.TripsPerOp, r)
			}
		}
	}

	table := offloadTable(sc, opts, rows).Text()
	for _, col := range []string{"section", "trips/op", "offl/op", "mncpu%"} {
		if !strings.Contains(table, col) {
			t.Errorf("table missing column %q:\n%s", col, table)
		}
	}
}
