package bench

import (
	"flag"
	"fmt"
	"strconv"

	"chime/internal/fault"
	"chime/internal/ycsb"
)

// Faults experiment: YCSB A and B across all four systems under an
// escalating verb-level fault schedule (dropped completions + latency
// spikes, injected by internal/fault through the dmsim fault gate),
// with lease-based lock recovery armed. The clean row (rate 0) runs
// with NO injector attached, so its numbers are directly comparable to
// every other experiment; TestFaultsZeroScheduleBitIdentical pins that
// a zero-rate schedule reproduces it bit for bit.

// faultRates is the default escalation: fraction of verbs that lose
// their completion (retried after a timeout) and, independently, that
// suffer a latency spike.
var faultRates = []float64{0, 0.001, 0.005, 0.02}

// faultSpikeNs is the injected spike size: 10x the fabric RTT.
const faultSpikeNs = 20_000

// faultLeaseNs is the lease length for the sweep — long enough that
// accumulated fault penalties on a live holder can never look like a
// crash (see internal/fault's chaos harness for the sizing argument).
const faultLeaseNs = 10_000_000

// defaultFaultSeed seeds the sweep's schedules when the caller passes
// 0; each rate step salts it so escalation steps are independent draws.
const defaultFaultSeed = 1000

// FaultRow is one point of the fault sweep (BENCH_FAULTS.json).
type FaultRow struct {
	System            string  `json:"system" col:"system,%-10s"`
	Mix               string  `json:"mix" col:"mix,%-4s"`
	Rate              float64 `json:"rate" col:"rate,%7.3f"`
	Clients           int     `json:"clients" col:"clients,%8d"`
	Ops               int64   `json:"ops"`
	ThroughputMops    float64 `json:"throughput_mops" col:"Mops,%10.3f"`
	SlowdownVsClean   float64 `json:"slowdown_vs_clean" col:"slowdown,%9.2f"`
	P50Us             float64 `json:"p50_us" col:"p50(us),%9.1f"`
	P99Us             float64 `json:"p99_us" col:"p99(us),%9.1f"`
	VerbTimeoutsPerOp float64 `json:"verb_timeouts_per_op" col:"tmo/op,%10.4f"`
	VerbRetriesPerOp  float64 `json:"verb_retries_per_op" col:"retry/op,%10.4f"`
	LeaseExpired      int64   `json:"lease_expired" col:"expired,%8d"`
	Recoveries        int64   `json:"recoveries" col:"recov,%6d"`
}

// runFaults sweeps the fault rate for every system on YCSB A and B.
// Each (system, mix) pair is built once and the escalation reuses the
// instance — caches are warm past the first rate, which is the regime
// the sweep probes (fault tolerance of a running system, not cold
// start). Rates beyond the first attach a fresh seeded Schedule; the
// injector is detached before the next pair so the clean rows stay
// uncontaminated.
func runFaults(sc Scale, seed int64, rates []float64) ([]FaultRow, error) {
	if seed == 0 {
		seed = defaultFaultSeed
	}
	if len(rates) == 0 {
		rates = faultRates
	}
	if sc.Obs == nil {
		// The fault columns fold through the observer registry; thread a
		// private one when the caller didn't ask for metrics capture.
		sc.Obs = NewObserver(false)
	}
	var rows []FaultRow
	for _, name := range HeadToHeadSystems {
		for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadB} {
			sys, cfg, err := buildSystem(name, sc, 1, func(c *SystemConfig) {
				c.LeaseLocks = true
				c.LeaseNs = faultLeaseNs
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			var clean float64
			for ri, rate := range rates {
				if rate > 0 {
					cfg.Fabric.SetFaultInjector(fault.NewSchedule(fault.Config{
						Seed:      seed + int64(ri),
						DropRate:  rate,
						SpikeRate: rate,
						SpikeNs:   faultSpikeNs,
					}))
				}
				r, err := runPoint(sys, cfg, mix, sc.Clients, sc.Ops, 17)
				cfg.Fabric.SetFaultInjector(nil)
				if err != nil {
					return nil, fmt.Errorf("%s %s rate=%g: %w", name, mix.Name, rate, err)
				}
				if clean == 0 {
					clean = r.ThroughputMops
				}
				rows = append(rows, FaultRow{
					System:            name,
					Mix:               mix.Name,
					Rate:              rate,
					Clients:           r.Clients,
					Ops:               r.Ops,
					ThroughputMops:    r.ThroughputMops,
					SlowdownVsClean:   clean / r.ThroughputMops,
					P50Us:             r.P50Us,
					P99Us:             r.P99Us,
					VerbTimeoutsPerOp: r.VerbTimeoutsPerOp,
					VerbRetriesPerOp:  r.VerbRetriesPerOp,
					LeaseExpired:      r.LeaseExpired,
					Recoveries:        r.Recoveries,
				})
			}
			cfg.Fabric.Close()
		}
	}
	return rows, nil
}

// faultsTable wraps the sweep's rows in its artifact envelope.
func faultsTable(sc Scale, rows []FaultRow) *Table {
	return &Table{ID: "faults", Rows: rows,
		Params: append(sizeParams(sc), Param{"spike_ns", faultSpikeNs}, Param{"lease_ns", faultLeaseNs})}
}

func init() {
	var seed int64
	var rates []float64
	register(Experiment{
		ID: "faults", Title: "fault-rate sweep with lease recovery", Rows: []FaultRow(nil),
		Flags: func(fs *flag.FlagSet) {
			fs.Int64Var(&seed, "fault-seed", 0, "faults experiment: schedule seed (0 = default)")
			fs.Var(ListFlag(&rates, func(s string) (float64, error) {
				v, err := strconv.ParseFloat(s, 64)
				if err == nil && (v < 0 || v >= 1) {
					err = fmt.Errorf("must be in [0, 1)")
				}
				return v, err
			}), "fault-rate", "faults experiment: comma-separated drop/spike rates (default 0,0.001,0.005,0.02)")
		},
		Table: func(sc Scale) (*Table, error) {
			rows, err := runFaults(sc, seed, rates)
			return faultsTable(sc, rows), err
		},
	})
}
