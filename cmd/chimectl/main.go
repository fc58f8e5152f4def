// Command chimectl runs a single ad-hoc workload against one index on a
// freshly simulated DM fabric and prints the measured point — a
// one-liner for exploring configurations outside the paper's fixed
// experiment grid.
//
// Examples:
//
//	chimectl -index CHIME -workload B -load 100000 -clients 64
//	chimectl -index Sherman -workload C -span 128 -cache 4194304
//	chimectl -index CHIME -workload A -value 128 -indirect
//	chimectl -index SMART -workload E -ops 20000
//	chimectl -index CHIME -workload A -flightrec -metrics-json m.json
//	chimectl report BENCH_ATTRIB.json
//	chimectl folio snapshots/CHIME/mn0.folio
//
// The report subcommand renders artifacts — any BENCH_*.json experiment
// table, a chime-bench/chimectl metrics JSON, or a bare timeline JSON —
// as the same aligned tables the experiments print. The folio
// subcommand summarizes a durability-plane .folio file: header fields,
// section extents, record counts and recovered metadata. Everything it
// prints is recomputable with jq/grep — the file is plain JSONL with a
// fixed-width JSON header, and a parity test pins that equivalence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"chime/cmd/internal/emit"
	"chime/internal/bench"
	"chime/internal/dmsim"
	"chime/internal/folio"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		runReport(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "folio" {
		runFolio(os.Args[2:])
		return
	}
	var (
		index    = flag.String("index", "CHIME", "CHIME | Sherman | SMART | ROLEX")
		workload = flag.String("workload", "C", "YCSB workload: A B C D E LOAD")
		loadN    = flag.Int("load", 100000, "items preloaded")
		ops      = flag.Int("ops", 40000, "measured operations")
		clients  = flag.Int("clients", 32, "simulated clients")
		mns      = flag.Int("mns", 1, "memory nodes")
		mnSize   = flag.Int("mnsize", 2<<30, "bytes per memory node")
		cache    = flag.Int64("cache", 0, "CN cache bytes (0 = paper-scaled)")
		hotspot  = flag.Int64("hotspot", 0, "hotspot buffer bytes (0 = paper-scaled; CHIME only)")
		span     = flag.Int("span", 0, "span size override")
		neigh    = flag.Int("neighborhood", 0, "neighborhood override (CHIME)")
		value    = flag.Int("value", 8, "value size in bytes")
		indirect = flag.Bool("indirect", false, "store values out of line")
		noRDWC   = flag.Bool("no-rdwc", false, "disable read delegation / write combining")
		seed     = flag.Int64("seed", 1, "workload seed")

		metricsOut  = flag.String("metrics-json", "", "write the metrics registry (counters, histograms, the measured row) as JSON to this file")
		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON of per-op spans and NIC timelines to this file")
		flightrec   = flag.Bool("flightrec", false, "attach the per-op flight recorder and print the tail-latency attribution tables")
		timelineOut = flag.String("timeline-json", "", "write the flight recorder's virtual-time timeline (implies -flightrec) as JSON to this file")
	)
	flag.Parse()

	if err := checkSizes(*loadN, *ops, *clients); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	mix, err := ycsb.MixByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	factory, ok := bench.Factories[*index]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown index %q (CHIME, Sherman, SMART, ROLEX)\n", *index)
		os.Exit(2)
	}

	// The observer (and its flight recorder) must exist before the system
	// is built: the factory wires it into the compute node, and clients
	// capture their recording handle at creation.
	var observer *bench.Observer
	if *metricsOut != "" || *traceOut != "" || *flightrec || *timelineOut != "" {
		observer = bench.NewObserver(*traceOut != "")
		if *flightrec || *timelineOut != "" {
			observer.EnableFlightRecorder(obs.FlightConfig{})
		}
	}

	fcfg := dmsim.DefaultConfig()
	fcfg.MNs = *mns
	fcfg.MNSize = *mnSize
	fcfg.ChunkBytes = 1 << 20
	fabric, err := dmsim.NewFabric(fcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer fabric.Close()
	fabric.SetObserver(observer.Sink())

	scaled := func(paperMB int64) int64 {
		b := int64(*loadN) * paperMB << 20 / 60_000_000
		if b < 2<<20 {
			b = 2 << 20
		}
		return b
	}
	cfg := bench.SystemConfig{
		Fabric:       fabric,
		LoadKeys:     bench.SortedLoadKeys(*loadN),
		ValueSize:    *value,
		Indirect:     *indirect,
		CacheBytes:   *cache,
		HotspotBytes: *hotspot,
		SpanSize:     *span,
		Neighborhood: *neigh,
		DisableRDWC:  *noRDWC,
		Obs:          observer,
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = scaled(100)
	}
	if cfg.HotspotBytes == 0 {
		cfg.HotspotBytes = scaled(30)
	}

	fmt.Printf("loading %d items into %s...\n", *loadN, *index)
	sys, err := factory(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if shape, err := bench.TreeShape(sys); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	} else if shape.Levels > 0 {
		fmt.Printf("tree: %v\n", shape)
	}

	res, err := bench.Run(sys, bench.RunConfig{
		Mix:          mix,
		Clients:      *clients,
		OpsPerClient: max(*ops / *clients, 1),
		ValueSize:    *value,
		KeySpace:     bench.NewKeySpaceFor(cfg.LoadKeys),
		Seed:         *seed,
		Obs:          observer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatResults([]bench.Result{res}))

	ns := fabric.TotalNICStats()
	fmt.Printf("\nfabric: %d verbs, %.1f MB read, %.1f MB written, NIC busy %.2f ms (queued %.2f ms)\n",
		ns.Verbs, float64(ns.BytesOut)/1e6, float64(ns.BytesIn)/1e6,
		float64(ns.ServedNs)/1e6, float64(ns.QueuedNs)/1e6)
	if !*noRDWC {
		fmt.Printf("rdwc: %d delegated reads, %d combined writes, %d rounds handed to a successor\n",
			res.DelegatedReads, res.CombinedWrites, res.Handoffs)
	}

	if fr := observer.FlightReport(); fr != nil {
		rows := bench.AttributionRows{{
			Section: "attrib", System: *index, Mix: mix.Name,
			Clients: res.Clients, Ops: res.Ops, ThroughputMops: res.ThroughputMops,
			P50Us: res.P50Us, P99Us: res.P99Us, Attribution: fr.Attribution,
		}}
		fmt.Printf("\n%s", (&bench.Table{Rows: rows}).Text())
		fmt.Printf("\n## Virtual-time timeline\n%s", bench.FormatTimeline(fr.Timeline))
		if *timelineOut != "" {
			emit.JSON(*timelineOut, fr.Timeline)
		}
	}
	emit.Observer(observer, *metricsOut, *traceOut)
}

// checkSizes rejects the sizes a run cannot be built from: each of
// -load, -ops and -clients must be positive.
func checkSizes(load, ops, clients int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-load", load}, {"-ops", ops}, {"-clients", clients}} {
		if f.v <= 0 {
			return fmt.Errorf("chimectl: %s must be positive, got %d", f.name, f.v)
		}
	}
	return nil
}

// runFolio summarizes .folio durability files. With -json it emits the
// folio.Info struct; without, the aligned text block. Inspect never
// opens a session, so the dirty flag (and the file) are untouched —
// safe to point at a live or crashed store.
func runFolio(args []string) {
	fs := flag.NewFlagSet("folio", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the summary as JSON instead of text")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: chimectl folio [-json] <file.folio>...")
		os.Exit(2)
	}
	for _, path := range fs.Args() {
		info, err := folio.Inspect(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		if *jsonOut {
			blob, err := json.MarshalIndent(info, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", blob)
			continue
		}
		fmt.Print(info.Format())
	}
}

// runReport renders artifacts as tables. Every artifact is read through
// bench.ReadTable: an experiment's BENCH_*.json renders as that
// experiment printed it; a chime-bench/metrics/* registry dump renders
// its optional flight section (attribution and timeline); a bare
// timeline report renders as a timeline.
func runReport(paths []string) {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: chimectl report <artifact.json>...")
		os.Exit(2)
	}
	fail := func(path string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			fail(path, err)
		}
		art, err := bench.ReadTable(blob)
		if err != nil {
			fail(path, err)
		}
		fmt.Printf("==== %s ====\n", path)
		var (
			schema string
			flight *bench.FlightSection
			tl     obs.TimelineReport
		)
		switch {
		case art.ID != "":
			fmt.Print(art.Text())
		case art.Lookup("schema", &schema) && strings.HasPrefix(schema, "chime-bench/metrics/"):
			if !art.Lookup("flight", &flight) || flight == nil {
				fmt.Printf("metrics artifact (%s) has no flight section; rerun with -flightrec\n", schema)
				break
			}
			rows := bench.AttributionRows{{
				Section: "attrib", System: "-", Mix: "-",
				Attribution: flight.Attribution,
			}}
			fmt.Print((&bench.Table{Rows: rows}).Text())
			fmt.Printf("\n## Virtual-time timeline\n%s", bench.FormatTimeline(flight.Timeline))
		case json.Unmarshal(blob, &tl) == nil && tl.WindowNs > 0:
			fmt.Print(bench.FormatTimeline(tl))
		default:
			fail(path, fmt.Errorf("unrecognized artifact (want a BENCH_*.json experiment table, a metrics JSON, or a timeline JSON)"))
		}
	}
}
