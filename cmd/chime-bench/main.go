// Command chime-bench regenerates the tables and figures of the CHIME
// paper (SOSP '24) on the simulated disaggregated-memory fabric, and
// runs the beyond-the-paper experiments whose results are committed as
// BENCH_*.json.
//
// Usage:
//
//	chime-bench -list
//	chime-bench -run fig12
//	chime-bench -run all -scale small
//	chime-bench -run fig18e -load 200000 -ops 50000 -clients 64
//	chime-bench -run offload -scale small -json BENCH_OFFLOAD.json
//
// Each experiment prints the rows the corresponding paper artifact
// reports (throughput in virtual-time Mops, latency percentiles in
// virtual microseconds, bytes and round trips per operation, cache MB).
// Absolute numbers differ from the paper's CloudLab testbed; the shapes
// — who wins, by what factor, where the crossovers sit — are the
// reproduction targets (see EXPERIMENTS.md).
//
// Every experiment goes through one path — parse, run, print, and with
// -json write its table — and registers the flags only it reads
// (internal/bench: Experiment.Flags).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"chime/cmd/internal/emit"
	"chime/internal/bench"
	"chime/internal/obs"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment id (e.g. fig12, tab1), a comma-separated list of ids, or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		scale   = flag.String("scale", "default", "preset scale: small | default")
		loadN   = flag.Int("load", 0, "override: items preloaded")
		ops     = flag.Int("ops", 0, "override: measured operations per run")
		clients = flag.Int("clients", 0, "override: fixed client count")
		sweep   []int
		jsonOut = flag.String("json", "", "also write the experiment's table (header params and rows) as JSON to this file; takes a single experiment")

		metricsOut = flag.String("metrics-json", "", "write the unified metrics registry (counters, NIC/latency histograms, per-run rows) as JSON to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON (about:tracing / Perfetto) of per-op spans and NIC timelines to this file")

		flightrec   = flag.Bool("flightrec", false, "attach the per-op flight recorder: metrics JSON gains the flight section (tail-latency attribution + virtual-time timeline); never perturbs virtual clocks")
		timelineOut = flag.String("timeline-json", "", "write the virtual-time timeline — the experiment's timeline sample when its table has one, else the flight recorder's last run (implies -flightrec) — as JSON to this file")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	)
	flag.Var(bench.ListFlag(&sweep, bench.PositiveInt), "sweep", "override: comma-separated client sweep (e.g. 8,64,256)")
	for _, e := range bench.Experiments {
		if e.Flags != nil {
			e.Flags(flag.CommandLine)
		}
	}
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *cpuprofile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		// os.Exit on failure paths abandons an incomplete profile, which
		// is fine: profiles are only read from successful runs.
		defer pprof.StopCPUProfile()
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range bench.Experiments {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "usage: chime-bench -run <id>|all [-scale small|default] (see -list)")
		os.Exit(2)
	}
	exps := bench.Experiments
	if *run != "all" {
		exps = nil
		for _, id := range strings.Split(*run, ",") {
			e, err := bench.FindExperiment(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	if *jsonOut != "" && len(exps) != 1 {
		fmt.Fprintf(os.Stderr, "-json writes one experiment's table; -run names %d\n", len(exps))
		os.Exit(2)
	}

	sc := bench.DefaultScale
	if *scale == "small" {
		sc = bench.SmallScale
	}
	if *loadN > 0 {
		sc.LoadN = *loadN
	}
	if *ops > 0 {
		sc.Ops = *ops
	}
	if *clients > 0 {
		sc.Clients = *clients
	}
	if sweep != nil {
		sc.ClientSweep = sweep
	}
	// One observer spans every experiment of the invocation; tracing is
	// only turned on when a trace artifact was asked for (span buffering
	// is the one observability cost worth gating).
	if *metricsOut != "" || *traceOut != "" || *flightrec || *timelineOut != "" {
		sc.Obs = bench.NewObserver(*traceOut != "")
	}
	// The flight recorder must attach before any system is built: clients
	// capture their recording handle at creation.
	if *flightrec || *timelineOut != "" {
		sc.Obs.EnableFlightRecorder(obs.FlightConfig{})
	}

	var timeline *obs.TimelineReport
	for _, e := range exps {
		esc := sc
		if e.HostSide && sweep == nil {
			esc.ClientSweep = nil // the preset's sweep is the index experiments'
		}
		fmt.Printf("==== %s ====\n", e.Heading(esc))
		start := time.Now()
		tab, err := e.Execute(os.Stdout, esc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *jsonOut != "" {
			blob, err := tab.JSON()
			emit.File(*jsonOut, blob, err)
		}
		var sample obs.TimelineReport
		if tab.Lookup("timeline_sample", &sample) {
			timeline = &sample
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	emit.Observer(sc.Obs, *metricsOut, *traceOut)
	if *timelineOut != "" {
		if fr := sc.Obs.FlightReport(); timeline == nil && fr != nil {
			timeline = &fr.Timeline
		}
		if timeline == nil {
			fmt.Fprintln(os.Stderr, "-timeline-json: flight recorder recorded nothing")
			os.Exit(1)
		}
		emit.JSON(*timelineOut, timeline)
	}
}
