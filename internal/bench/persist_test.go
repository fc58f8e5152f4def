package bench

import (
	"runtime"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/folio"
	"chime/internal/ycsb"
)

// persistPin runs one write-bearing CHIME point with the given client
// count on a fabric with the (optional) persistence dir, and returns
// its fingerprint.
func persistPin(t *testing.T, clients int, dir string) string {
	t.Helper()
	sc := tinyScale
	sc.LoadN = 2500
	// The system is built by hand rather than through point.run so the
	// test can look at the fabric's persistence plane afterwards.
	sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
		fcfg := testbedConfig(1, sc.MNSize)
		fcfg.Persist.Dir = dir
		c.Fabric = dmsim.MustNewFabric(fcfg)
		c.LoadClients = 1
	})
	if err != nil {
		t.Fatal(err)
	}
	fab := cfg.Fabric
	r, err := runPoint(sys, cfg, ycsb.WorkloadA, clients, 600, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dir == "" {
		if fab.PersistEnabled() {
			t.Fatal("persistence plane attached without Persist.Dir")
		}
		if s := fab.PersistStats(); s != (dmsim.PersistStats{}) {
			t.Fatalf("persistence-off fabric logged: %+v", s)
		}
	} else if s := fab.PersistStats(); s.Records == 0 {
		t.Fatal("persistence-on fabric logged nothing under a write workload")
	}
	return fingerprint(fab, r)
}

// TestPersistOffMeansOff is the durability plane's determinism pin.
//
// Off: a fabric whose Persist config is the zero value must behave
// exactly as the pre-plane fabric did — no files, no counters, and
// same-seed bit-identical rows regardless of host parallelism.
//
// On: enabling the plane may only add the deterministic virtual-time
// charge — same-seed runs stay bit-identical across GOMAXPROCS, with
// the persistence counters in the fingerprint. Both hold for one client
// and for a contended cohort of eight.
func TestPersistOffMeansOff(t *testing.T) {
	for _, persist := range []bool{false, true} {
		for _, clients := range []int{1, 8} {
			dirFor := func() string {
				if !persist {
					return ""
				}
				return t.TempDir()
			}
			prev := runtime.GOMAXPROCS(1)
			fp1 := persistPin(t, clients, dirFor())
			runtime.GOMAXPROCS(4)
			fp4 := persistPin(t, clients, dirFor())
			runtime.GOMAXPROCS(prev)
			if fp1 != fp4 {
				t.Errorf("persist=%t clients=%d: fingerprints diverge across GOMAXPROCS: %s vs %s",
					persist, clients, fp1, fp4)
			}
		}
	}
}

// TestRunPersistSections smoke-runs the full experiment at a trimmed
// scale: every section present, every point double-run bit-identical
// (runPersist fails otherwise), and warm-start restoring faster than
// cold load.
func TestRunPersistSections(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system experiment sweep")
	}
	sc := tinyScale
	sc.LoadN = 2500
	sc.Ops = 800
	dir, err := folio.ScratchDir("chime-persist-test")
	if err != nil {
		t.Fatal(err)
	}
	defer folio.RemoveDir(dir)
	rows, err := runPersist(sc, dir, []string{"CHIME"})
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]int{}
	for _, r := range rows {
		sections[r.Section]++
		if r.Fingerprint == "" {
			t.Errorf("%s/%s persist=%t: no fingerprint (every point is double-run)", r.Section, r.System, r.Persist)
		}
		switch r.Section {
		case "recovery":
			if r.RecoverNs <= 0 || r.LogRecords <= 0 {
				t.Errorf("degenerate recovery row: %+v", r)
			}
		case "warmstart":
			if r.Speedup <= 1 {
				t.Errorf("warm-start not faster than cold load: %+v", r)
			}
		}
	}
	if sections["overhead"] != 2*len(HeadToHeadSystems) || sections["recovery"] == 0 || sections["warmstart"] != 1 {
		t.Fatalf("missing sections: %v", sections)
	}

	// The -snapshot contract: the warm-start cache persists, so a second
	// sweep restores without reloading (and still fingerprints clean).
	if !folio.Exists(folio.Join(dir, "CHIME", "mn0.folio")) {
		t.Fatal("snapshot cache not left under the -snapshot dir")
	}
}
