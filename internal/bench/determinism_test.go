package bench

import (
	"testing"

	"chime/internal/ycsb"
)

// Two single-client runs built from the same scale and workload seed
// must produce bit-identical result rows: every timestamp is virtual,
// every random draw is threaded from the seed (the virtualclock and
// seededrand analyzers enforce both statically), so nothing in a
// deterministic run may vary between executions. This is the
// row-level replay guarantee the committed BENCH_*.json artifacts and
// the fault plane's off-means-off pin build on.
func TestSameSeedBitIdenticalRows(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000

	measure := func() Result {
		t.Helper()
		sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
			c.LoadClients = 1 // single-threaded: fully deterministic
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := runPoint(sys, cfg, ycsb.WorkloadA, 1, 800, 7)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	a, b := measure(), measure()
	if a != b {
		t.Fatalf("same seed produced different rows:\n a: %+v\n b: %+v", a, b)
	}
}

// TestFullHotspotBufferRowPinned pins, end to end, that the hotspot
// buffer evicts the same victim it always has: a single-client YCSB-C
// Zipf run (single loader, so no host interleaving reaches the tree or
// the op stream) whose buffer holds 64 entries is full after the first
// few dozen window reads and evicts on most ops after that, with most
// counters tied at 1 — so the LFU tie-break decides nearly every
// victim, and a different victim shows in the hit ratio and the bytes
// read. The row was recorded at the last commit that found the victim
// by scanning the whole map; a host-only change to the buffer must
// reproduce it bit for bit.
func TestFullHotspotBufferRowPinned(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000
	sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
		c.LoadClients = 1
		c.HotspotBytes = 64 * 16 // 64 entries of 16 B (Figure 11)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPoint(sys, cfg, ycsb.WorkloadC, 1, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hs := sys.(*chimeSystem).cn.HotspotStats(); hs.Cap != 64 || hs.Entries != 64 {
		t.Fatalf("hotspot buffer not full: %+v", hs)
	}
	want := Result{
		System: "CHIME", Mix: "C", Clients: 1, Ops: 4000,
		ThroughputMops: 0.4221885409586213, P50Us: 2.368, P99Us: 2.368,
		TripsPerOp: 1.00025, ReadBytes: 183.518,
		MaxInflight:     1,
		CacheBytes:      6860,
		CacheHitRatio:   1,
		HotspotHitRatio: 0.102,
		NICUtilization:  0.007624725049712701,
	}
	if got != want {
		t.Fatalf("full-buffer row moved:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestScanRowPinned pins, end to end, that a host-only change to the
// scan path (leaf-image decode, whole-leaf validation, result assembly)
// leaves every simulated figure of a scan-heavy run alone: a
// single-client YCSB-E run (95% scans of up to 100 keys, 5% inserts;
// single loader, so no host interleaving reaches the tree or the op
// stream) reads whole leaves along sibling chains with inserts landing
// between the scans, and reports the same virtual throughput, latency,
// trips and bytes it did at the last commit whose decoder copied every
// cell.
func TestScanRowPinned(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000
	sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
		c.LoadClients = 1
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPoint(sys, cfg, ycsb.WorkloadE, 1, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		System: "CHIME", Mix: "E", Clients: 1, Ops: 2000,
		ThroughputMops: 0.1206350251852758, P50Us: 7.04, P99Us: 14.08,
		TripsPerOp: 3.511, ReadBytes: 5179.106, WriteBytes: 3.198,
		MaxInflight:    1,
		CacheBytes:     5836,
		CacheHitRatio:  1,
		NICUtilization: 0.05009568468610133,
	}
	if got != want {
		t.Fatalf("YCSB-E row moved:\n got: %+v\nwant: %+v", got, want)
	}
}
