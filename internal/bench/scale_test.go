package bench

import "testing"

// TestScaleSmoke runs a miniature sweep through the full runScale path —
// verification double-runs (a point that does not reproduce to the bit
// fails the sweep), table and artifact rendering — keeping the
// experiment wired end to end without burning bench time on real client
// counts. Each count yields the faithful-window row plus a capacity row
// whose window scales with the cohort.
func TestScaleSmoke(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		opts := scaleOptions{clientSweep: []int{8, 64}, opsPerClient: 64, lanes: lanes, verify: true}
		rows, err := runScale(opts)
		if err != nil {
			t.Fatal(err)
		}
		var wants [][2]int // clients, quantum
		for _, n := range opts.clientSweep {
			wants = append(wants, [2]int{n, faithfulQuantumRTTs}, [2]int{n, capacityQuantumRTTs(n)})
		}
		if len(rows) != len(wants) {
			t.Fatalf("got %d rows, want %d (faithful and capacity window per count)", len(rows), len(wants))
		}
		for i, r := range rows {
			if w := wants[i]; r.Clients != w[0] || r.QuantumRTTs != w[1] || r.Lanes != lanes {
				t.Errorf("row %d = %d clients/q%d/%d lanes, want %d/q%d/%d", i, r.Clients, r.QuantumRTTs, r.Lanes, w[0], w[1], lanes)
			}
			if r.Ops != int64(r.Clients)*64 || r.Depth != scaleDepth {
				t.Errorf("%d clients: ops = %d at depth %d, want %d at depth %d", r.Clients, r.Ops, r.Depth, r.Clients*64, scaleDepth)
			}
			if r.HostSeconds <= 0 || r.HostMops <= 0 {
				t.Errorf("%d clients: non-positive host timing %v / %v", r.Clients, r.HostSeconds, r.HostMops)
			}
			if r.VirtualMs <= 0 {
				t.Errorf("%d clients: virtual time did not advance", r.Clients)
			}
			if r.Fingerprint == "" {
				t.Errorf("%d clients: empty fingerprint", r.Clients)
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
}
