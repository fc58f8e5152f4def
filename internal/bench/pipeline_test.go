package bench

import (
	"testing"

	"chime/internal/ycsb"
)

// batchedPoint runs one batched measurement on sys: reads at depth,
// writes too when batchWrites is set.
func batchedPoint(t *testing.T, sys System, cfg SystemConfig, mix ycsb.Mix, clients, ops, depth int, batchWrites bool, seed int64) Result {
	t.Helper()
	rc := RunConfig{
		Mix:          mix,
		Clients:      clients,
		OpsPerClient: max(ops/clients, 1),
		ValueSize:    cfg.ValueSize,
		KeySpace:     NewKeySpaceFor(cfg.LoadKeys),
		Seed:         seed,
		ReadDepth:    depth,
	}
	if batchWrites {
		rc.WriteDepth = depth
	}
	r, err := Run(sys, rc)
	if err != nil {
		t.Fatalf("%s %s depth %d: %v", sys.Name(), mix.Name, depth, err)
	}
	return r
}

// TestBatchedRunPipelineSpeedup pins the two pipelining acceptance
// criteria on a cold cache: batched reads at depth 8 deliver at least
// 1.8x the virtual-time throughput of depth 1 on YCSB C, and batched
// reads+writes at least 3x on BOTH YCSB A and the 100%-insert LOAD mix.
func TestBatchedRunPipelineSpeedup(t *testing.T) {
	sc := SmallScale
	clients := pipelineClients(sc)
	for _, tc := range []struct {
		mix         ycsb.Mix
		batchWrites bool
		min         float64
	}{
		{ycsb.WorkloadC, false, 1.8},
		{ycsb.WorkloadA, true, 3},
		{ycsb.WorkloadLoad, true, 3},
	} {
		sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
			c.CacheBytes = 0
			c.DisableRDWC = true
		})
		if err != nil {
			t.Fatal(err)
		}
		d1 := batchedPoint(t, sys, cfg, tc.mix, clients, sc.Ops, 1, tc.batchWrites, 31)
		d8 := batchedPoint(t, sys, cfg, tc.mix, clients, sc.Ops, 8, tc.batchWrites, 31)
		speedup := d8.ThroughputMops / d1.ThroughputMops
		t.Logf("cold-cache YCSB %s: depth-1 %.3f Mops, depth-8 %.3f Mops (%.2fx, max inflight %d, cycles %d, combined %d)",
			tc.mix.Name, d1.ThroughputMops, d8.ThroughputMops, speedup, d8.MaxInflight, d8.WCCycles, d8.WCCombinedKeys)
		if speedup < tc.min {
			t.Fatalf("%s: depth-8 speedup %.2fx < %.1fx", tc.mix.Name, speedup, tc.min)
		}
		if d8.MaxInflight < 2 {
			t.Fatalf("%s: depth-8 run never had >1 verb in flight (MaxInflight=%d)", tc.mix.Name, d8.MaxInflight)
		}
		if tc.batchWrites && d8.WCCycles == 0 {
			t.Fatalf("%s: no write cycles recorded", tc.mix.Name)
		}
	}
}

// TestBatchedRunRejectsRDWC: the combining wrapper hides the batch
// interfaces; the harness must say so rather than silently degrade.
func TestBatchedRunRejectsRDWC(t *testing.T) {
	sc := SmallScale
	sc.LoadN, sc.Ops = 2000, 500
	sys, cfg, err := buildSystem("CHIME", sc, 1, nil) // RDWC enabled
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []RunConfig{{Mix: ycsb.WorkloadC, ReadDepth: 4}, {Mix: ycsb.WorkloadLoad, WriteDepth: 4}} {
		rc.Clients, rc.OpsPerClient = 2, 10
		rc.ValueSize, rc.KeySpace = cfg.ValueSize, NewKeySpaceFor(cfg.LoadKeys)
		if _, err := Run(sys, rc); err == nil {
			t.Fatalf("Run accepted clients without the batch interfaces (%+v)", rc)
		}
	}
}

// TestBatchedRunMixedWorkloads drives the mixes end to end for both
// batch-capable systems at several depths: YCSB B with batched reads
// around synchronous updates, YCSB A and LOAD with everything batched.
func TestBatchedRunMixedWorkloads(t *testing.T) {
	sc := SmallScale
	sc.LoadN, sc.Ops = 4000, 2000
	for _, name := range []string{"CHIME", "Sherman"} {
		for _, tc := range []struct {
			mix         ycsb.Mix
			batchWrites bool
		}{{ycsb.WorkloadB, false}, {ycsb.WorkloadA, true}, {ycsb.WorkloadLoad, true}} {
			sys, cfg, err := buildSystem(name, sc, 1, func(c *SystemConfig) {
				c.DisableRDWC = true
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, depth := range []int{1, 8} {
				r := batchedPoint(t, sys, cfg, tc.mix, 4, sc.Ops, depth, tc.batchWrites, 7)
				if r.ThroughputMops <= 0 || r.Ops != int64(sc.Ops) {
					t.Fatalf("%s %s depth %d: bad result %+v", name, tc.mix.Name, depth, r)
				}
				if tc.batchWrites && r.WCCycles == 0 {
					t.Fatalf("%s %s depth %d: no write cycles", name, tc.mix.Name, depth)
				}
			}
		}
	}
}
