package bench

import (
	"strings"
	"testing"

	"chime/internal/obs"
	"chime/internal/ycsb"
)

// TestAttributionCoverage pins the flight ledger's accounting quality:
// on a contended read/write mix, the per-phase shares must explain at
// least 95% of measured latency — mean and p99 tail — for every op
// class of every system. The ledger is built from clock deltas dmsim
// computes anyway, so in practice coverage is ~100%; a drop below 95%
// means some code path advances a client clock without charging the
// flight.
func TestAttributionCoverage(t *testing.T) {
	sc := SmallScale
	for _, name := range HeadToHeadSystems {
		pt := point{mix: ycsb.WorkloadA, clients: sc.Clients, ops: sc.Ops, seed: 23}
		_, fs, _, err := pt.recorded(name, sc, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(fs.Attribution.Classes) == 0 {
			t.Fatalf("%s: no op classes recorded", name)
		}
		for _, ca := range fs.Attribution.Classes {
			if ca.Coverage < 0.95 {
				t.Errorf("%s/%s: mean coverage %.3f < 0.95 (shares %v)",
					name, ca.Class, ca.Coverage, ca.MeanShare)
			}
			if ca.TailCoverage < 0.95 {
				t.Errorf("%s/%s: tail coverage %.3f < 0.95 (shares %v)",
					name, ca.Class, ca.TailCoverage, ca.TailShare)
			}
		}
	}
}

// TestFlightZeroPerturbation proves the recorder never moves a clock:
// for every system a recorder-off and a recorder-on run from fresh
// builds must produce bit-identical run fingerprints (Result plus NIC,
// MN-CPU and frontier totals). The off and on runs do different host
// work, so this holds only because a cohort's virtual time does not
// depend on how the host interleaves its members — and the points are
// the experiment's own contended ones: sixteen clients on the 50/50
// update mix and on the read-only one, CN cache, hotspot buffer and
// RDWC on.
func TestFlightZeroPerturbation(t *testing.T) {
	sc := SmallScale
	for _, name := range HeadToHeadSystems {
		for _, pt := range attribPoints(sc) {
			pt.ops = sc.Ops / 4
			_, _, fpOff, err := pt.recorded(name, sc, false)
			if err != nil {
				t.Fatalf("%s/%s off: %v", name, pt.mix.Name, err)
			}
			_, fs, fpOn, err := pt.recorded(name, sc, true)
			if err != nil {
				t.Fatalf("%s/%s on: %v", name, pt.mix.Name, err)
			}
			if fpOff != fpOn {
				t.Errorf("%s/%s: recorder perturbed the run: off=%s on=%s", name, pt.mix.Name, fpOff, fpOn)
			}
			if fs == nil || len(fs.Attribution.Classes) == 0 {
				t.Errorf("%s/%s: recorder-on run recorded nothing", name, pt.mix.Name)
			}
		}
	}
}

// TestAttributionReportRendering sanity-checks the table renderers and
// the metrics artifact's flight section plumbing on one cheap point.
func TestAttributionReportRendering(t *testing.T) {
	sc := SmallScale
	po := NewObserver(false)
	po.EnableFlightRecorder(obs.FlightConfig{TopK: 2})
	scp := sc
	scp.Obs = po
	sys, cfg, err := buildSystem("CHIME", scp, 1, func(c *SystemConfig) {
		c.LoadClients = 1
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := runPoint(sys, cfg, ycsb.WorkloadA, 4, sc.Ops/4, 23)
	if err != nil {
		t.Fatal(err)
	}
	fs := po.FlightReport()
	if fs == nil {
		t.Fatal("no flight report despite recorder enabled")
	}
	rows := AttributionRows{{
		Section: "attrib", System: "CHIME", Mix: "A",
		Clients: r.Clients, Ops: r.Ops, Attribution: fs.Attribution,
	}}
	table := (&Table{Rows: rows}).Text()
	for _, want := range []string{"search", "update", "descend"} {
		if !strings.Contains(table, want) {
			t.Errorf("attribution table missing %q:\n%s", want, table)
		}
	}
	if len(fs.Timeline.Windows) == 0 {
		t.Fatal("timeline recorded no windows")
	}
	if out := FormatTimeline(fs.Timeline); !strings.Contains(out, "nic%") {
		t.Errorf("timeline table malformed:\n%s", out)
	}
	mj, err := po.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{MetricsSchema, `"flight"`, `"attribution"`, `"timeline"`} {
		if !strings.Contains(string(mj), want) {
			t.Errorf("metrics JSON missing %q", want)
		}
	}
}
