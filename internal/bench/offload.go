package bench

import (
	"flag"
	"fmt"

	"chime/internal/offroute"
	"chime/internal/ycsb"
)

// Offload experiment: the Table-1-style accounting for the MN-side
// offload verbs and the hybrid one-sided/RPC router. Four sections, all
// on the paper's four systems:
//
//	trips    — round trips per point op, cold cache, one client: the
//	           offloaded path collapses descend+fetch+probe to ~1.
//	deep     — head-to-head on a deep/cold-cache uniform read workload
//	           at a client count the bounded MN CPU can absorb: static
//	           offload beats one-sided.
//	saturate — the same workload at client counts past the MN CPU's
//	           capacity: one-sided keeps scaling, offload flatlines at
//	           the MN compute ceiling and loses.
//	mixed    — a cached zipfian read-heavy mix where the two static
//	           policies split; the adaptive router should match or beat
//	           the better static one.
//
// Every point is run twice from a fresh build and its fingerprint — a
// hash of the full Result row plus the fabric's NIC, MN-CPU,
// persistence and frontier totals — must come out the same, or the
// experiment fails.

// offloadDeepMix is the deep/cold section's workload: uniform point
// reads, so the CN cache can't learn a hot set and every one-sided op
// pays the full descent.
var offloadDeepMix = ycsb.Mix{Name: "Cu", ReadPct: 1.0, Dist: ycsb.DistUniform}

// offloadDeepClients is the "deep" section's client count: low enough
// that the default 2-core MN CPU stays under its service ceiling.
const offloadDeepClients = 4

// offloadOptions parameterizes runOffload (the chime-bench -offload,
// -mn-cpus and -mn-service-ns flags land here).
type offloadOptions struct {
	// modes restricts the routing modes compared (default off, on,
	// adaptive).
	modes []offroute.Mode

	// mnCPUs / mnServiceNs size the MN compute model; zeros keep the
	// dmsim defaults (2 cores, 600 ns dispatch).
	mnCPUs      int
	mnServiceNs int64
}

// OffloadRow is one measured point (BENCH_OFFLOAD.json).
type OffloadRow struct {
	Section        string  `json:"section" col:"section,%-9s"`
	System         string  `json:"system" col:"system,%-8s"`
	Mode           string  `json:"mode" col:"mode,%-9s"`
	Mix            string  `json:"mix" col:"mix,%-4s"`
	Clients        int     `json:"clients" col:"clients,%8d"`
	Ops            int64   `json:"ops"`
	ThroughputMops float64 `json:"throughput_mops" col:"Mops,%10.3f"`
	P50Us          float64 `json:"p50_us" col:"p50(us),%9.1f"`
	P99Us          float64 `json:"p99_us" col:"p99(us),%9.1f"`
	TripsPerOp     float64 `json:"trips_per_op" col:"trips/op,%9.2f"`
	OffloadsPerOp  float64 `json:"offloads_per_op" col:"offl/op,%8.2f"`
	FallbacksPerOp float64 `json:"mn_fallbacks_per_op" col:"fallb/op,%8.4f"`
	MNUtilization  float64 `json:"mn_utilization" col:"mncpu%,%6.1f,*100"`
	Fingerprint    string  `json:"fingerprint"`
}

// runOffload runs the four sections for every system and mode,
// double-running each point.
func runOffload(sc Scale, opts offloadOptions) ([]OffloadRow, error) {
	if len(opts.modes) == 0 {
		opts.modes = []offroute.Mode{offroute.ModeOff, offroute.ModeAlways, offroute.ModeAdaptive}
	}
	// The saturation sweep's high end: past the default MN CPU's
	// closed-loop capacity for point ops.
	satClients := max(sc.Clients*4, 64)
	// Cold sections shed the CN cache and RDWC so the trips accounting
	// is the raw protocol's. The write-bearing mixed section runs a
	// single client: routing is per-client, so the adaptive-vs-static
	// comparison needs no more.
	sections := []struct {
		name  string
		modes []offroute.Mode
		point
	}{
		{"trips", staticModes(opts.modes), point{mix: offloadDeepMix, cold: true, clients: 1, ops: sc.Ops / 4}},
		{"deep", opts.modes, point{mix: offloadDeepMix, cold: true, clients: offloadDeepClients, ops: sc.Ops}},
		{"saturate", staticModes(opts.modes), point{mix: offloadDeepMix, cold: true, clients: satClients, ops: sc.Ops}},
		{"mixed", opts.modes, point{mix: ycsb.WorkloadB, clients: 1, ops: sc.Ops / 2}},
	}
	var rows []OffloadRow
	for _, name := range HeadToHeadSystems {
		for _, sec := range sections {
			for _, mode := range sec.modes {
				pt := sec.point
				pt.offload, pt.seed = mode, 23
				pt.mnCPUs, pt.mnServiceNs = opts.mnCPUs, opts.mnServiceNs
				r, fp, err := twice(func() (Result, string, error) { return pt.run(name, sc) })
				if err != nil {
					return nil, fmt.Errorf("offload %s/%s/%s: %w", name, sec.name, mode, err)
				}
				rows = append(rows, OffloadRow{
					Section:        sec.name,
					System:         name,
					Mode:           mode.String(),
					Mix:            pt.mix.Name,
					Clients:        r.Clients,
					Ops:            r.Ops,
					ThroughputMops: r.ThroughputMops,
					P50Us:          r.P50Us,
					P99Us:          r.P99Us,
					TripsPerOp:     r.TripsPerOp,
					OffloadsPerOp:  r.OffloadsPerOp,
					FallbacksPerOp: r.MNFallbacksPerOp,
					MNUtilization:  r.MNUtilization,
					Fingerprint:    fp,
				})
			}
		}
	}
	return rows, nil
}

// staticModes filters the adaptive router out of the sections whose
// story is the head-to-head between the two static policies.
func staticModes(modes []offroute.Mode) []offroute.Mode {
	var out []offroute.Mode
	for _, m := range modes {
		if m != offroute.ModeAdaptive {
			out = append(out, m)
		}
	}
	return out
}

// offloadTable wraps the sweep's rows in its artifact envelope; zero MN
// knobs mean the model defaults.
func offloadTable(sc Scale, opts offloadOptions, rows []OffloadRow) *Table {
	return &Table{ID: "offload", Rows: rows,
		Params: append(sizeParams(sc), Param{"mn_cpus", opts.mnCPUs}, Param{"mn_service_ns", opts.mnServiceNs})}
}

func init() {
	var opts offloadOptions
	register(Experiment{
		ID: "offload", Title: "MN-side verbs vs one-sided, adaptive router", Rows: []OffloadRow(nil),
		Flags: func(fs *flag.FlagSet) {
			fs.Var(ListFlag(&opts.modes, offroute.ParseMode), "offload",
				"offload experiment: comma-separated routing modes off|on|adaptive (default off,on,adaptive)")
			fs.IntVar(&opts.mnCPUs, "mn-cpus", 0, "offload experiment: offload cores per MN (default: dmsim model default, 2)")
			fs.Int64Var(&opts.mnServiceNs, "mn-service-ns", 0, "offload experiment: fixed dispatch ns per offloaded program (default: dmsim model default, 600)")
		},
		Table: func(sc Scale) (*Table, error) {
			rows, err := runOffload(sc, opts)
			return offloadTable(sc, opts, rows), err
		},
	})
}
