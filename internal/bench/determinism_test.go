package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"chime/internal/dmsim"
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

// TestWarmCohortBitIdentical: a contended multi-client run is a function
// of its seed. All four systems, the 50/50 update mix and the read-only
// one on Zipfian keys, sixteen clients sharing one CN — its node cache,
// CHIME's hotspot buffer, the local lock table and the RDWC combiner all
// on — each point run twice on fresh fabrics: the Result row and the
// fabric's NIC, MN-CPU and frontier totals must agree to the last bit,
// whatever GOMAXPROCS is and whatever else the host is doing. Nothing
// here is left to host order: the cohort scheduler runs one member at a
// time in (clock, slot) order, waiting on a leader or a lock holder is
// an event on that timeline, and every harness goroutine parks before it
// first touches CN-shared state (dmsim.Client.Sync).
func TestWarmCohortBitIdentical(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000
	sc.MNSize = 256 << 20
	for _, name := range HeadToHeadSystems {
		for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC} {
			pt := point{mix: mix, clients: 16, ops: 3200, seed: 7}
			r, _, err := twice(func() (Result, string, error) { return pt.run(name, sc) })
			if err != nil {
				t.Errorf("%s/%s: %v", name, mix.Name, err)
				continue
			}
			// The premise: the CN-shared paths were actually exercised.
			if r.DelegatedReads == 0 || mix.Name == "A" && r.CombinedWrites == 0 {
				t.Errorf("%s/%s: %d delegated reads and %d combined writes: the cohort did not contend",
					name, mix.Name, r.DelegatedReads, r.CombinedWrites)
			}
		}
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
// reproduce it bit for bit. (Re-recorded once since, with the tree: the
// split rule of PR 23 loads the same 3 000 sorted keys into 66 leaves
// where the median built 99, so a few hot keys changed slot — hit ratio
// 0.102 → 0.1015, 183.518 → 183.618 bytes per read. With SplitPoint
// forced to the median the old row reproduces bit for bit.)
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
		ThroughputMops: 0.42218782798716886, P50Us: 2.368, P99Us: 2.368,
		TripsPerOp: 1.00025, ReadBytes: 183.618,
		MaxInflight:     1,
		CacheBytes:      5401,
		Shape:           Shape{Levels: 3, Nodes: [shapeLevels]int{66, 2, 1}, Keys: 3000},
		CacheHitRatio:   1,
		HotspotHitRatio: 0.1015,
		NICUtilization:  0.007626400924760218,
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
// trips and bytes it did when the scan window landed — the one declared
// virtual-time change of this row (CHANGES.md, PR 20: a scan reads only
// the leaves it returns from, 3.511 → 2.5815 trips, and overlaps the
// ones it is certain to need, MaxInflight 1 → 2); before that it had
// held since the last commit whose decoder copied every cell. The second
// declared change is the tree under the scans (PR 23: the sorted load
// leaves 46 keys in a leaf, not 30 — 2.5815 → 2.136 trips, 3755 → 3067
// bytes per op, and the run's 5 % inserts meet fuller leaves, 3.2 → 7.4
// bytes written per op); with SplitPoint forced to the median the old row
// reproduces bit for bit.
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
		ThroughputMops: 0.22851574907691063, P50Us: 4.736, P99Us: 7.04,
		TripsPerOp: 2.136, ReadBytes: 3066.7625, WriteBytes: 7.4165,
		MaxInflight:    2,
		CacheBytes:     4377,
		Shape:          Shape{Levels: 3, Nodes: [shapeLevels]int{67, 2, 1}, Keys: 3091},
		CacheHitRatio:  1,
		NICUtilization: 0.05650965958922923,
	}
	if got != want {
		t.Fatalf("YCSB-E row moved:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRemoteImageDeterministic pins that what a system leaves in MN
// memory is a function of the op sequence: one loader and one client
// replay the same load, YCSB-A and insert script on two fresh fabrics,
// and the final clock and a SHA-256 over every allocated MN byte must
// agree. Virtual time cannot see a node whose slots were laid out in Go
// map iteration order (whole-node reads cost the same either way), but
// folio snapshots, persist fingerprints and byte-level goldens can —
// SMART did exactly that until its nodes stopped being decoded into maps.
func TestRemoteImageDeterministic(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 5000
	sc.MNSize = 128 << 20
	for _, name := range HeadToHeadSystems {
		t.Run(name, func(t *testing.T) {
			replay := func() (clock int64, sum string) {
				t.Helper()
				sys, cfg, err := buildSystem(name, sc, 1, func(c *SystemConfig) {
					c.LoadClients = 1
					c.DisableRDWC = true
				})
				if err != nil {
					t.Fatal(err)
				}
				cl := sys.NewClient()
				space := NewKeySpaceFor(cfg.LoadKeys)
				for _, phase := range []struct {
					mix ycsb.Mix
					ops int
				}{{ycsb.WorkloadA, 1500}, {ycsb.WorkloadLoad, 2500}, {ycsb.WorkloadA, 500}} {
					gen := ycsb.MustNewGenerator(phase.mix, space, 7)
					for i := 0; i < phase.ops; i++ {
						op := gen.Next()
						var err error
						switch op.Kind {
						case ycsb.OpRead:
							_, err = cl.Search(op.Key)
						case ycsb.OpUpdate:
							err = cl.Update(op.Key, ycsb.FillValue(op.Key, cfg.ValueSize, uint32(i)))
						case ycsb.OpInsert:
							err = cl.Insert(op.Key, ycsb.FillValue(op.Key, cfg.ValueSize, 0))
						}
						if err != nil {
							t.Fatalf("%s op %d (%v %#x): %v", phase.mix.Name, i, op.Kind, op.Key, err)
						}
					}
				}
				h := sha256.New()
				for mn := 0; mn < cfg.Fabric.MNs(); mn++ {
					mem := make([]byte, cfg.Fabric.UsedBytes(mn))
					if err := cfg.Fabric.Peek(dmsim.GAddr{MN: uint8(mn)}, mem); err != nil {
						t.Fatal(err)
					}
					h.Write(mem)
				}
				return cl.DM().Now(), fmt.Sprintf("%x", h.Sum(nil))
			}
			clockA, sumA := replay()
			clockB, sumB := replay()
			if clockA != clockB {
				t.Errorf("final clock differs between two replays: %d vs %d", clockA, clockB)
			}
			if sumA != sumB {
				t.Errorf("MN memory differs between two replays of the same ops:\n %s\n %s", sumA, sumB)
			}
		})
	}
}
