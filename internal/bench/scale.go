package bench

import (
	"bufio"
	"flag"
	"fmt"
	"os" //lint:allow durableio host-capacity experiment reads /proc/self/status (RSS) by design
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"chime/internal/dmsim"
)

// Scale experiment: host-side capacity of the simulator itself. Every
// other experiment measures virtual time (what the simulated fabric
// does); this one measures how many simulated verbs per wall-clock
// second the host can push through dmsim as the client count sweeps
// 1k→100k. The workload is deliberately index-free — depth-pipelined
// 64 B reads against per-client disjoint slots — so the numbers isolate
// the scheduler + verb hot path, and so multi-lane runs stay
// bit-identical (no cross-lane races on remote lines).

// scaleOptions parameterizes runScale (the chime-bench -sweep, -verb-ops,
// -lanes and -verify flags land here).
type scaleOptions struct {
	// clientSweep is the simulated-client axis (default 1k, 10k, 100k).
	clientSweep []int
	// opsPerClient is the measured verbs each client issues (default
	// scaled so every point issues at least ~2M verbs total).
	opsPerClient int
	// lanes is the scheduler's lane count (default 1: single-core hosts
	// gain nothing from more, and 1 keeps the single-server NIC every
	// index experiment runs on).
	lanes int
	// verify runs each point twice and fails unless the fingerprint —
	// every client clock and counter plus the NIC totals — reproduced
	// bit-identically.
	verify bool
}

func (o scaleOptions) withDefaults() scaleOptions {
	if len(o.clientSweep) == 0 {
		o.clientSweep = []int{1_000, 10_000, 100_000}
	}
	if o.lanes <= 0 {
		o.lanes = 1
	}
	return o
}

// scaleDepth is the posted-verb pipeline depth of every client.
const scaleDepth = 8

// ScaleRow is one measured point (BENCH_SCALE.json).
type ScaleRow struct {
	Clients     int     `json:"clients" col:"clients,%8d"`
	Lanes       int     `json:"lanes" col:"lanes,%6d"`
	Depth       int     `json:"depth" col:"depth,%6d"`
	QuantumRTTs int     `json:"quantum_rtts" col:"qRTTs,%8d"`
	Ops         int64   `json:"ops" col:"ops,%10d"` // simulated verbs issued
	HostSeconds float64 `json:"host_seconds" col:"host(s),%9.2f"`
	HostMops    float64 `json:"host_mops" col:"Mops/s,%10.2f"` // simulated verbs / host second, millions
	VirtualMs   float64 `json:"virtual_ms" col:"virt(ms),%9.1f"`
	RSSMB       float64 `json:"rss_mb" col:"rss(MB),%8.0f"`
	AllocsPerOp float64 `json:"allocs_per_op" col:"allocs/op,%11.4f"`
	Fingerprint string  `json:"fingerprint"`
}

// scalePoint runs one (clients, lanes, window) point and returns its row.
func scalePoint(clients, ops, lanes, quantumRTTs int) (ScaleRow, error) {
	cfg := dmsim.DefaultConfig()
	cfg.Lanes = lanes
	cfg.QuantumRTTs = quantumRTTs
	// One private 64 B slot per client (plus the nil line at offset 0).
	cfg.MNSize = (clients + 2) * 64
	f, err := dmsim.NewFabric(cfg)
	if err != nil {
		return ScaleRow{}, err
	}
	defer f.Close()

	cls := make([]*dmsim.Client, clients)
	for i := range cls {
		cls[i] = f.NewClient()
		cls[i].JoinCohort() // join order fixes the lane assignment
	}

	// Spawn every worker and let it allocate its scratch before the clock
	// starts: the measured window covers the steady-state verb loop, not
	// goroutine creation. Steady state is allocation-free (pinned by
	// TestVerbRoundTripZeroAllocs), so the collector is also disabled for
	// the window — with it on, periodic cycles scanning 100k goroutine
	// stacks measure the collector, not the scheduler. AllocsPerOp stays
	// honest either way: Mallocs counts allocations, not collections.
	errs := make([]error, clients)
	startCh := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cls[i]
			defer c.LeaveCohort()
			addr := dmsim.NilGAddr.Add(uint64(64 * (i + 1)))
			buf := make([]byte, 64)
			hs := make([]*dmsim.Completion, scaleDepth)
			<-startCh
			for j := 0; j < ops; j += scaleDepth {
				for d := range hs {
					h, err := c.PostRead(addr, buf)
					if err != nil {
						errs[i] = err
						return
					}
					hs[d] = h
				}
				for d := range hs {
					c.Poll(hs[d])
					c.Release(hs[d])
				}
			}
		}(i)
	}
	runtime.GC()
	gcWas := debug.SetGCPercent(-1)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now() //lint:allow virtualclock host-capacity experiment measures wall time by design
	close(startCh)
	wg.Wait()
	hostSec := time.Since(start).Seconds() //lint:allow virtualclock host-capacity experiment measures wall time by design
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	debug.SetGCPercent(gcWas)
	for _, err := range errs {
		if err != nil {
			return ScaleRow{}, err
		}
	}

	totalOps := int64(clients) * int64(ops)
	row := ScaleRow{
		Clients:     clients,
		Lanes:       lanes,
		Depth:       scaleDepth,
		QuantumRTTs: quantumRTTs,
		Ops:         totalOps,
		HostSeconds: hostSec,
		HostMops:    float64(totalOps) / hostSec / 1e6,
		VirtualMs:   float64(f.Frontier()) / 1e6,
		RSSMB:       readRSSMB(),
		AllocsPerOp: float64(memAfter.Mallocs-memBefore.Mallocs) / float64(totalOps),
	}
	// Each client's final clock and counters, in creation order.
	clocks, stats := make([]int64, clients), make([]dmsim.ClientStats, clients)
	for i, c := range cls {
		clocks[i], stats[i] = c.Now(), c.Stats()
	}
	row.Fingerprint = fingerprint(f, clocks, stats)
	return row, nil
}

// readRSSMB reads the process's current resident set from
// /proc/self/status (0 when unavailable, e.g. non-Linux hosts).
func readRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// faithfulQuantumRTTs is the tight window of the sweep: members stay
// closely synchronized in virtual time, and the row measures what the
// scheduler costs per window.
const faithfulQuantumRTTs = 8

// capacityQuantumRTTs is the loosely-coupled window for a given cohort
// size: wide enough that a member rides out the NIC queueing delay of
// the whole cohort many times over before parking, so park/advance cost
// amortizes away and the row measures the simulator's raw verb ceiling.
func capacityQuantumRTTs(clients int) int {
	return 20 * clients
}

// runScale sweeps the client axis. Each point runs at the faithful
// window (faithfulQuantumRTTs) and at a capacity window that scales
// with the cohort (capacityQuantumRTTs), the loosely-coupled regime that
// shows the simulator's raw verb ceiling: window width trades
// synchronization fidelity for park amortization. With verify, each
// configuration runs twice and fingerprints that differ are an error
// (the scheduler is deterministic by construction).
func runScale(opts scaleOptions) ([]ScaleRow, error) {
	opts = opts.withDefaults()
	var rows []ScaleRow
	for _, clients := range opts.clientSweep {
		ops := opts.opsPerClient
		if ops <= 0 {
			// At least ~2M verbs per point, and at least 300 per client so
			// one-time per-client costs (completion-pool warm-up, cold
			// structures) do not masquerade as steady-state cost.
			ops = max(2_000_000/clients, 300)
		}
		for _, quantum := range []int{faithfulQuantumRTTs, capacityQuantumRTTs(clients)} {
			run := func() (ScaleRow, string, error) {
				row, err := scalePoint(clients, ops, opts.lanes, quantum)
				runtime.GC()
				return row, row.Fingerprint, err
			}
			measure := run
			if opts.verify {
				measure = func() (ScaleRow, string, error) { return twice(run) }
			}
			row, _, err := measure()
			if err != nil {
				return nil, fmt.Errorf("scale %d clients, %d-RTT window: %w", clients, quantum, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// scaleTable wraps the sweep's rows in its artifact envelope.
func scaleTable(opts scaleOptions, rows []ScaleRow) *Table {
	return &Table{ID: "scale", Rows: rows, Params: []Param{
		{"depth", scaleDepth}, {"lanes", opts.withDefaults().lanes},
	}}
}

func init() {
	var opts scaleOptions
	register(Experiment{
		ID: "scale", Title: "host-side capacity sweep of the cohort scheduler", Rows: []ScaleRow(nil), HostSide: true,
		Flags: func(fs *flag.FlagSet) {
			fs.IntVar(&opts.lanes, "lanes", 0, "scale experiment: scheduler lane count (default 1)")
			fs.IntVar(&opts.opsPerClient, "verb-ops", 0, "scale experiment: measured verbs per client (default auto)")
			fs.BoolVar(&opts.verify, "verify", false, "scale experiment: run each point twice and fail unless both are bit-identical")
		},
		Table: func(sc Scale) (*Table, error) {
			opts := opts
			opts.clientSweep = sc.ClientSweep // nil unless the caller overrode it (HostSide)
			rows, err := runScale(opts)
			return scaleTable(opts, rows), err
		},
	})
}
