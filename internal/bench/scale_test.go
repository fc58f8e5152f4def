package bench

import "testing"

// TestScaleSmoke runs a miniature sweep through the full runScale path —
// both schedulers, verification double-runs, table and artifact
// rendering — keeping the experiment wired end to end without burning
// bench time on real client counts. Each point yields the faithful
// head-to-head pair plus an event capacity row whose window scales with
// the cohort.
func TestScaleSmoke(t *testing.T) {
	opts := scaleOptions{clientSweep: []int{8, 64}, opsPerClient: 64, verify: true}
	rows, err := runScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wants []struct {
		sched            string
		clients, quantum int
	}
	for _, n := range opts.clientSweep {
		wants = append(wants, []struct {
			sched            string
			clients, quantum int
		}{{"gate", n, faithfulQuantumRTTs}, {"event", n, faithfulQuantumRTTs}, {"event", n, capacityQuantumRTTs(n)}}...)
	}
	if len(rows) != len(wants) {
		t.Fatalf("got %d rows, want %d (gate+event faithful, event capacity, per count)", len(rows), len(wants))
	}
	for i, r := range rows {
		if w := wants[i]; r.Scheduler != w.sched || r.Clients != w.clients || r.QuantumRTTs != w.quantum {
			t.Errorf("row %d = %s/%d/q%d, want %s/%d/q%d", i, r.Scheduler, r.Clients, r.QuantumRTTs, w.sched, w.clients, w.quantum)
		}
		if r.Ops != int64(r.Clients)*64 || r.Depth != scaleDepth {
			t.Errorf("%s/%d: ops = %d at depth %d, want %d at depth %d", r.Scheduler, r.Clients, r.Ops, r.Depth, r.Clients*64, scaleDepth)
		}
		if r.HostSeconds <= 0 || r.HostMops <= 0 {
			t.Errorf("%s/%d: non-positive host timing %v / %v", r.Scheduler, r.Clients, r.HostSeconds, r.HostMops)
		}
		if r.VirtualMs <= 0 {
			t.Errorf("%s/%d: virtual time did not advance", r.Scheduler, r.Clients)
		}
		if r.Fingerprint == "" {
			t.Errorf("%s/%d: empty fingerprint", r.Scheduler, r.Clients)
		}
		if r.Reproducible == nil {
			t.Errorf("%s/%d: verify set but Reproducible missing", r.Scheduler, r.Clients)
		} else if r.Scheduler == "event" && !*r.Reproducible {
			// The event loop is deterministic by construction; a gate row
			// may legitimately reproduce or not, so only event is pinned.
			t.Errorf("event/%d: fingerprint did not reproduce", r.Clients)
		}
	}
	tab := scaleTable(opts, rows)
	if tab.Text() == "" {
		t.Error("empty table")
	}
	if _, err := tab.JSON(); err != nil {
		t.Errorf("artifact: %v", err)
	}
}

// TestScaleGateCap pins that gate points above gateCap are skipped: the
// condvar gate's O(members) windows make very large cohorts a finding to
// report, not a default to wait on. scaleSpeedup must pair the largest
// same-quantum gate/event rows.
func TestScaleGateCap(t *testing.T) {
	rows, err := runScale(scaleOptions{clientSweep: []int{8, 32}, opsPerClient: 16, gateCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	var gates, events int
	for _, r := range rows {
		switch r.Scheduler {
		case "gate":
			gates++
			if r.Clients > 8 {
				t.Errorf("gate row at %d clients exceeds gateCap 8", r.Clients)
			}
		case "event":
			events++
		}
	}
	if gates != 1 || events != 4 {
		t.Fatalf("got %d gate / %d event rows, want 1 / 4", gates, events)
	}
	if at, sp := scaleSpeedup(rows); at != 8 || sp <= 0 {
		t.Errorf("scaleSpeedup = (%d, %v), want pair at 8 clients with positive ratio", at, sp)
	}
}
