package bench

import (
	"flag"
	"fmt"

	"chime/internal/ycsb"
)

// Pipeline-depth experiments (async verb pipelining). Both sweep the
// batch pipeline depth of bench.Run for CHIME and Sherman with a COLD
// internal-node cache (budget 0): every descent pays full-depth remote
// reads, the regime where posting several state machines at once
// matters most. RDWC is disabled so the harness reaches the concrete
// batch interfaces.
//
//	pipeline  — reads through SearchBatch under YCSB C and B; B's updates
//	            flush the pending batch and run synchronously.
//	writepipe — reads, inserts and updates all batched (SearchBatch,
//	            MultiPut, UpdateBatch) under YCSB A and the 100%-insert
//	            LOAD mix; the pipeline's own per-leaf write combining
//	            stands in for RDWC and is reported per row.
//
// Depth 1 is sequential ops through the same code path, so each sweep
// isolates what posting several keys' verbs concurrently buys.

// pipelineDepths is the sweeps' default depth axis.
var pipelineDepths = []int{1, 2, 4, 8, 16}

// PipelineRow is one point of the pipeline sweep (BENCH_PIPELINE.json).
type PipelineRow struct {
	System          string  `json:"system" col:"system,%-10s"`
	Mix             string  `json:"mix" col:"mix,%-6s"`
	Depth           int     `json:"depth" col:"depth,%6d"`
	Clients         int     `json:"clients" col:"clients,%8d"`
	Ops             int64   `json:"ops"`
	ThroughputMops  float64 `json:"throughput_mops" col:"Mops,%10.3f"`
	SpeedupVsDepth1 float64 `json:"speedup_vs_depth1" col:"speedup,%9.2f"`
	P50Us           float64 `json:"p50_us" col:"p50(us),%9.1f"`
	P99Us           float64 `json:"p99_us" col:"p99(us),%9.1f"`
	TripsPerOp      float64 `json:"trips_per_op" col:"trips,%8.2f"`
	MaxInflight     int64   `json:"max_inflight" col:"inflight,%9d"`
}

// WritepipeRow is one point of the writepipe sweep
// (BENCH_WRITEPIPE.json): the pipeline columns plus the write-combining
// counters summed over the cohort's clients.
type WritepipeRow struct {
	PipelineRow
	WriteCycles  int64 `json:"write_cycles" col:"cycles,%8d"`
	CombinedKeys int64 `json:"combined_keys" col:"combined,%9d"`
}

// pipelineClients picks the sweeps' client count: modest, so the NIC is
// not already saturated at depth 1 (pipelining can only expose queueing
// that sequential clients leave on the table; a saturated NIC compresses
// every depth to the same throughput).
func pipelineClients(sc Scale) int {
	return max(sc.Clients/4, 4)
}

// depthSweep measures both systems under each mix at each depth. Reads
// are always batched; writes too when batchWrites is set.
func depthSweep(sc Scale, depths []int, mixes []ycsb.Mix, batchWrites bool) ([]WritepipeRow, error) {
	if len(depths) == 0 {
		depths = pipelineDepths
	}
	clients := pipelineClients(sc)
	var rows []WritepipeRow
	for _, name := range []string{"CHIME", "Sherman"} {
		for _, mix := range mixes {
			sys, cfg, err := buildSystem(name, sc, 1, func(c *SystemConfig) {
				c.CacheBytes = 0 // cold: every internal hop is remote
				c.DisableRDWC = true
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			var base float64
			for _, depth := range depths {
				rc := RunConfig{
					Mix:          mix,
					Clients:      clients,
					OpsPerClient: max(sc.Ops/clients, 1),
					ValueSize:    cfg.ValueSize,
					KeySpace:     NewKeySpaceFor(cfg.LoadKeys),
					Seed:         31,
					ReadDepth:    depth,
				}
				if batchWrites {
					rc.WriteDepth = depth
				}
				r, err := Run(sys, rc)
				if err != nil {
					return nil, fmt.Errorf("%s %s depth=%d: %w", name, mix.Name, depth, err)
				}
				if base == 0 {
					base = r.ThroughputMops
				}
				rows = append(rows, WritepipeRow{
					PipelineRow: PipelineRow{
						System:          name,
						Mix:             mix.Name,
						Depth:           depth,
						Clients:         clients,
						Ops:             r.Ops,
						ThroughputMops:  r.ThroughputMops,
						SpeedupVsDepth1: r.ThroughputMops / base,
						P50Us:           r.P50Us,
						P99Us:           r.P99Us,
						TripsPerOp:      r.TripsPerOp,
						MaxInflight:     r.MaxInflight,
					},
					WriteCycles:  r.WCCycles,
					CombinedKeys: r.WCCombinedKeys,
				})
			}
			cfg.Fabric.Close()
		}
	}
	return rows, nil
}

// depthTable wraps either sweep's rows in its artifact envelope.
func depthTable(id string, sc Scale, rows any) *Table {
	return &Table{ID: id, Params: append(sizeParams(sc), Param{"cold_cache", true}), Rows: rows}
}

func init() {
	var depths []int
	register(Experiment{
		ID: "pipeline", Title: "SearchBatch depth sweep", Rows: []PipelineRow(nil),
		// -depths serves both sweeps; a flag can be defined only once.
		Flags: func(fs *flag.FlagSet) {
			fs.Var(ListFlag(&depths, PositiveInt), "depths",
				"pipeline and writepipe experiments: comma-separated batch pipeline depths (default 1,2,4,8,16)")
		},
		Table: func(sc Scale) (*Table, error) {
			rows, err := depthSweep(sc, depths, []ycsb.Mix{ycsb.WorkloadC, ycsb.WorkloadB}, false)
			reads := make([]PipelineRow, len(rows))
			for i, r := range rows {
				reads[i] = r.PipelineRow
			}
			return depthTable("pipeline", sc, reads), err
		},
	})
	register(Experiment{
		ID: "writepipe", Title: "batch-write depth sweep", Rows: []WritepipeRow(nil),
		Table: func(sc Scale) (*Table, error) {
			rows, err := depthSweep(sc, depths, []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadLoad}, true)
			return depthTable("writepipe", sc, rows), err
		},
	})
}
