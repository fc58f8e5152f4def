package bench

import (
	"strings"
	"testing"

	"chime/internal/fault"
	"chime/internal/ycsb"
)

// TestFaultsZeroScheduleBitIdentical pins the "off means off" contract
// of the fault plane end to end: a deterministic single-client run with
// a zero-rate fault Schedule attached must produce bit-identical
// virtual-time results to the same run with no injector at all. The
// gate is consulted on every verb either way; a consulted-but-silent
// injector must not advance any clock.
func TestFaultsZeroScheduleBitIdentical(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000

	measure := func(inj *fault.Schedule) Result {
		t.Helper()
		sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
			c.LoadClients = 1 // single-threaded: fully deterministic
		})
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			cfg.Fabric.SetFaultInjector(inj)
		}
		r, err := runPoint(sys, cfg, ycsb.WorkloadA, 1, 800, 9)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	plain := measure(nil)
	gated := measure(fault.NewSchedule(fault.Config{Seed: 123}))
	if plain.Ops != gated.Ops ||
		plain.ThroughputMops != gated.ThroughputMops ||
		plain.P50Us != gated.P50Us ||
		plain.P99Us != gated.P99Us ||
		plain.TripsPerOp != gated.TripsPerOp {
		t.Fatalf("zero-rate schedule changed virtual-time results:\nplain: %+v\ngated: %+v", plain, gated)
	}
}

// TestRunFaultsSweep smoke-runs the registered experiment shape on a
// reduced matrix and checks the fault columns respond to the rate.
func TestRunFaultsSweep(t *testing.T) {
	sc := tinyScale
	sc.Ops = 1000
	sc.Clients = 4
	rows, err := runFaults(sc, 0, []float64{0, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(HeadToHeadSystems)*2*2 {
		t.Fatalf("got %d rows, want %d", len(rows), len(HeadToHeadSystems)*2*2)
	}
	for _, r := range rows {
		if r.ThroughputMops <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.Rate == 0 {
			if r.VerbTimeoutsPerOp != 0 || r.VerbRetriesPerOp != 0 {
				t.Fatalf("clean row has fault events: %+v", r)
			}
			if r.SlowdownVsClean != 1 {
				t.Fatalf("clean row slowdown %f != 1", r.SlowdownVsClean)
			}
		} else if r.VerbRetriesPerOp == 0 {
			t.Fatalf("faulted row saw no verb retries: %+v", r)
		}
	}

	// The rows survive their own artifact: written, read back, rendered.
	blob, err := faultsTable(sc, rows).JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Rows.([]FaultRow); len(got) != len(rows) || got[0] != rows[0] {
		t.Fatalf("artifact round trip mangled the rows: %d rows, first %+v", len(got), got[0])
	}
	for _, want := range []string{"CHIME", "ROLEX", "retry/op"} {
		if !strings.Contains(back.Text(), want) {
			t.Fatalf("table missing %q:\n%s", want, back.Text())
		}
	}
}
