// Command benchmark is the repository's benchmark: one closed-loop,
// single-process driver that measures the simulator on two clocks —
// virtual time (what the modelled system achieves) and host time (what
// simulating it costs) — over workloads that each load a different layer.
// See README.md for the workloads, the metric ↔ layer table and usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"chime/internal/bench"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the workloads and exit")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as generated from the metric and workload tables")
		compare  = flag.Bool("compare", false, "compare two -json result files given as arguments: a.json b.json")
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the op generators (the only thing it feeds)")
		seconds  = flag.Float64("seconds", runSeconds, "host seconds one run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: where to write the JSONL trace (cpu.pprof goes beside it); default .bench_build/<workload>.trace.jsonl")
		jsonOut  = flag.String("json", "", "append every result, with its manifest, to this file as one JSON line")
	)
	flag.Parse()

	// Simulated clients are goroutines, and all of them share one OS
	// thread: host time is then the simulator's CPU cost and nothing else.
	// With a thread per core on the two shared cores the benchmark gets,
	// a preempted holder of a hot mutex stalls the other thread, and what a
	// run costs swings by a factor of two with what the neighbours do (see
	// README.md, "One thread").
	runtime.GOMAXPROCS(1)

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-11s %s\n", w.name, w.why)
		}
		return
	case *spec:
		b, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	run := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		run = []workload{w}
	}
	var results []*result
	for _, w := range run {
		var res *result
		var err error
		if *trace != 0 {
			out := *traceOut
			if out == "" {
				out = filepath.Join(".bench_build", w.name+".trace.jsonl")
			}
			res, err = runTraced(w, *seed, *seconds, out)
		} else {
			res, err = runUntraced(w, *seed, *seconds)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		res.print(os.Stdout)
		if *jsonOut != "" {
			if err := appendJSON(*jsonOut, res); err != nil {
				fatal(err)
			}
		}
		results = append(results, res)
	}
	// The last lines of the output are the results proper, one JSON
	// object per workload.
	correct := true
	for _, res := range results {
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// result is everything one run of one workload measured.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`

	// EndToEnd comes from untraced rounds only. A traced run also has
	// it, from its shorter untraced phase and a single set-up.
	EndToEnd metricSet `json:"end_to_end"`
	PerLayer metricSet `json:"per_layer,omitempty"`

	// Samples counts the latency samples behind each quantile.
	Samples map[string]int `json:"latency_samples"`
	// Rounds are the untraced rounds one by one, so that drift within a
	// run (a cache still filling, a tree growing) shows.
	Rounds []roundBrief `json:"rounds"`
	// HostSpeed is the host's speed over the run. Every host time above is
	// raw ns ÷ the slowdown around its own window (see speedRef), which
	// the per-round series carries; Slowdown is the whole run's.
	HostSpeed hostSpeed `json:"host_speed"`
	Manifest  manifest  `json:"manifest"`
}

type hostSpeed struct {
	LoadNs    float64 `json:"ref_load_ns"`
	HandoffNs float64 `json:"ref_handoff_ns"`
	Slowdown  float64 `json:"slowdown"`
	Samples   int     `json:"samples"`
	// The kernel runs one by one, in ns per load and per hand-off; a
	// round's ref_runs_before says where it falls among them.
	LoadSeries    []float64 `json:"ref_load_ns_series"`
	HandoffSeries []float64 `json:"ref_handoff_ns_series"`
}

// roundBrief is one round as measured: its host times are raw, and
// Slowdown is what the metrics divide them by.
type roundBrief struct {
	Ops         int64   `json:"ops"`
	SimMops     float64 `json:"sim_mops"`
	HostNsPerOp float64 `json:"raw_host_ns_per_op"`
	CPUNsPerOp  float64 `json:"raw_host_cpu_ns_per_op"`
	AllocsPerOp float64 `json:"host_allocs_per_op"`
	RefAt       int     `json:"ref_runs_before"`
	Slowdown    float64 `json:"slowdown"`
}

func (m *measured) briefs() []roundBrief {
	out := make([]roundBrief, len(m.rounds))
	for i, r := range m.rounds {
		ops := float64(r.ops)
		out[i] = roundBrief{
			Ops: r.ops, SimMops: ops * 1e3 / float64(r.simNs), HostNsPerOp: float64(r.wallNs) / ops,
			CPUNsPerOp: float64(r.cpuNs) / ops, AllocsPerOp: float64(r.mallocs) / ops, RefAt: r.refAt, Slowdown: r.slow,
		}
	}
	return out
}

func (r *result) note(attempted, failed int64, err error) {
	r.Attempted += attempted
	r.Failed += failed
	if err != nil && r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
}

// contractLine is the object the benchmark contract asks for: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced.
func (r *result) contractLine() map[string]any {
	metrics := r.EndToEnd
	if r.Manifest.Trace {
		metrics = r.PerLayer
	}
	return map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	}
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  %d rounds  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Manifest.Seed, len(r.Rounds), r.Attempted, r.Failed, r.Correct)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "   first error: %s\n", r.FirstErr)
	}
	printSet := func(title string, decls []metricDecl, set metricSet) {
		if len(set) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, d := range decls {
			if v, ok := set[d.name]; ok {
				fmt.Fprintf(w, "    %-38s %16.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	title := "end-to-end (untraced)"
	if r.Manifest.Trace {
		title = "end-to-end (untraced phase of the traced run: half the time, one set-up)"
	}
	printSet(title, endToEnd, r.EndToEnd)
	printSet("per-layer (traced)", perLayer, r.PerLayer)
	classes := make([]string, 0, len(r.Samples))
	for c := range r.Samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "  host speed: slowdown %.3f against the reference host (%.1f ns/load, %.0f ns/hand-off, %d samples); host times above are raw ÷ the slowdown around each measured window\n",
		r.HostSpeed.Slowdown, r.HostSpeed.LoadNs, r.HostSpeed.HandoffNs, r.HostSpeed.Samples)
	fmt.Fprintf(w, "  latency samples:")
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%d", c, r.Samples[c])
	}
	fmt.Fprintln(w)
}

func appendJSON(path string, res *result) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(res)
}

// measured is the rounds of one measured phase, folded.
type measured struct {
	rounds []roundResult
	lat    [numClasses][]int64 // pooled over rounds, sorted

	// Deltas of the cumulative counters over the phase.
	cacheHits, cacheMisses int64
	hotHits, hotLookups    int64
	delegated, combined    int64
	reg0, reg1             obs.Snapshot
}

// measure runs rounds until seconds of host time are used, two at least.
func (in *instance) measure(seconds float64, tr *tracer) *measured {
	m := &measured{}
	cacheRep, _ := in.sys.(bench.CacheHitMissReporter)
	hotRep, _ := in.sys.(bench.HotspotReporter)
	combRep, _ := in.sys.(bench.CombinerReporter)
	counters := func(sign int64) {
		if cacheRep != nil {
			h, mi := cacheRep.CacheHitMiss()
			m.cacheHits += sign * h
			m.cacheMisses += sign * mi
		}
		if hotRep != nil {
			h, l := hotRep.HotspotHitMiss()
			m.hotHits += sign * h
			m.hotLookups += sign * l
		}
		if combRep != nil && combRep.Combiner() != nil {
			d, c := combRep.Combiner().Stats()
			m.delegated += sign * d
			m.combined += sign * c
		}
	}
	counters(-1)
	m.reg0 = in.obs.Sink().Registry().Snapshot()
	start := time.Now()
	for len(m.rounds) < 2 || time.Since(start).Seconds() < seconds {
		r := in.runRound(tr)
		for c := range r.lat {
			m.lat[c] = append(m.lat[c], r.lat[c]...)
			r.lat[c] = nil
		}
		m.rounds = append(m.rounds, r)
	}
	in.ref.sample()
	for i := range m.rounds {
		m.rounds[i].slow = in.ref.around(m.rounds[i].refAt)
	}
	m.reg1 = in.obs.Sink().Registry().Snapshot()
	counters(+1)
	for c := range m.lat {
		sort.Slice(m.lat[c], func(i, j int) bool { return m.lat[c][i] < m.lat[c][j] })
	}
	return m
}

// sum adds the rounds' counts up (simNs: the rounds ran back to back).
func (m *measured) sum() roundResult {
	var t roundResult
	for _, r := range m.rounds {
		t.ops += r.ops
		t.failed += r.failed
		if t.firstErr == nil {
			t.firstErr = r.firstErr
		}
		t.simNs += r.simNs
		t.bytes += r.bytes
		t.gcs += r.gcs
		addStats(&t.stats, r.stats)
		t.nicDur.Verbs += r.nicDur.Verbs
		t.nicDur.QueuedNs += r.nicDur.QueuedNs
		t.nicDur.ServedNs += r.nicDur.ServedNs
	}
	return t
}

func (m *measured) totals() (ops, failed int64, firstErr error) {
	t := m.sum()
	return t.ops, t.failed, t.firstErr
}

// perRound is the median over rounds of a per-round figure.
func (m *measured) perRound(f func(r roundResult) float64) float64 {
	v := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		v[i] = f(r)
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileUs is the q-quantile of sorted virtual ns, in µs; 0 when the
// class has no samples. Virtual latencies sit on the NIC model's 16 ns
// lattice, so thousands of samples tie; the quantile is interpolated
// through the tie it falls in (the grouped-data formula), which makes it
// move with the share of ops on each side instead of jumping a lattice
// step or not at all.
func quantileUs(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	at := min(int(rank), n-1)
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= sorted[at] })
	hi := sort.Search(n, func(i int) bool { return sorted[i] > sorted[at] })
	v, next := float64(sorted[at]), float64(sorted[at])
	if hi < n {
		next = float64(sorted[hi])
	}
	return (v + (rank-float64(lo))/float64(hi-lo)*(next-v)) / 1e3
}

func (m *measured) simMops() float64 {
	return m.perRound(func(r roundResult) float64 { return float64(r.ops) * 1e3 / float64(r.simNs) })
}

// hostNsPerOp and hostCPUNsPerOp are in reference-host ns: each round's
// time is divided by the host's slowdown around that round (see speedRef).
func (m *measured) hostNsPerOp() float64 {
	return m.perRound(func(r roundResult) float64 { return float64(r.wallNs) / float64(r.ops) / r.slow })
}

func (m *measured) hostCPUNsPerOp() float64 {
	return m.perRound(func(r roundResult) float64 { return float64(r.cpuNs) / float64(r.ops) / r.slow })
}

// endToEndOf folds an untraced phase and the set-up time before it, both
// in reference-host time, into the end-to-end metric set.
func endToEndOf(in *instance, m *measured, setupS float64) metricSet {
	set := metricSet{}
	e := func(name string, v float64) { set.set(endToEnd, name, v) }
	e("sim_mops", m.simMops())
	e("sim_p50_us", quantileUs(m.lat[in.w.primary], 0.50))
	e("sim_p99_us", quantileUs(m.lat[in.w.primary], 0.99))
	e("host_ns_per_op", m.hostNsPerOp())
	e("host_cpu_ns_per_op", m.hostCPUNsPerOp())
	e("host_allocs_per_op", m.perRound(func(r roundResult) float64 { return float64(r.mallocs) / float64(r.ops) }))
	e("host_rss_mb", peakRSSMB())
	e("setup_s", setupS)
	return set
}

func (m *measured) samples() map[string]int {
	s := map[string]int{}
	for c, l := range m.lat {
		if len(l) > 0 {
			s[classNames[c]] = len(l)
		}
	}
	return s
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 3

func runUntraced(w workload, seed int64, seconds float64) (*result, error) {
	res := &result{Workload: w.name, Manifest: newManifest(w, seed, seconds, false)}
	wall := res.Manifest.PhaseWallS
	ref := newSpeedRef()
	var in *instance
	var setups []setupTimes
	t0 := time.Now()
	for i := 0; i < setupRepeats; i++ {
		in = nil // let newInstance collect the previous one first
		var err error
		if in, err = newInstance(w, seed, false, ref); err != nil {
			return nil, err
		}
		setups = append(setups, in.setup)
	}
	wall["setup"] = time.Since(t0).Seconds()

	t0 = time.Now()
	m := in.measure(seconds, nil)
	wall["measure"] = time.Since(t0).Seconds()
	res.note(m.totals())
	// Each set-up is followed by a host-speed sample only now.
	setupS := make([]float64, len(setups))
	for i, st := range setups {
		setupS[i] = st.total() / st.slowdown(ref)
	}
	res.EndToEnd = endToEndOf(in, m, median(setupS))

	t0 = time.Now()
	res.note(in.verify())
	wall["verify"] = time.Since(t0).Seconds()
	res.finish(m, ref)
	return res, nil
}

// finish fills in what every kind of run reports besides its metrics.
func (r *result) finish(untraced *measured, ref *speedRef) {
	r.Samples = untraced.samples()
	r.Rounds = untraced.briefs()
	r.HostSpeed = hostSpeed{
		LoadNs: median(ref.loadNs), HandoffNs: median(ref.handoffNs),
		Slowdown: ref.slowdown(), Samples: len(ref.loadNs),
		LoadSeries: ref.loadNs, HandoffSeries: ref.handoffNs,
	}
	r.Correct = r.Failed == 0
}

// tracedRun is what the phases of a traced run hand to the per-layer fold.
type tracedRun struct {
	w          workload
	um, tm     *measured // untraced and traced rounds
	traced     *instance
	plainSetup setupTimes
	solo       soloResult
	verb       verbResult
	nextNs     float64
	nextAllocs float64
	ref        *speedRef
	soloAt     int // kernel runs made before the solo pass
	layersAt   int // kernel runs made before the verb and generator loops
}

// runTraced measures the workload twice, half the time each: on a plain
// instance (whose figures are the reference, and which the single-layer
// passes then use) and on an observed one with the flight recorder
// attached and a span around every op.
func runTraced(w workload, seed int64, seconds float64, traceOut string) (*result, error) {
	res := &result{Workload: w.name, Manifest: newManifest(w, seed, seconds, true)}
	wall := res.Manifest.PhaseWallS
	ref := newSpeedRef()
	run := tracedRun{w: w, ref: ref}

	t0 := time.Now()
	plain, err := newInstance(w, seed, false, ref)
	if err != nil {
		return nil, err
	}
	wall["setup_plain"] = time.Since(t0).Seconds()
	// The solo pass comes first, on the system as set-up left it: what it
	// then finds in the caches does not depend on how many rounds the
	// host had time for.
	t0 = time.Now()
	ref.sample()
	run.soloAt = ref.runs() // measure begins with a sample
	run.solo = plain.soloPass(seed)
	res.note(run.solo.ops, run.solo.failed, run.solo.err)
	wall["solo"] = time.Since(t0).Seconds()
	t0 = time.Now()
	run.um = plain.measure(seconds/2, nil)
	wall["measure_untraced"] = time.Since(t0).Seconds()
	res.note(run.um.totals())
	res.EndToEnd = endToEndOf(plain, run.um, plain.setup.total()/plain.setup.slowdown(ref))

	t0 = time.Now()
	run.layersAt = ref.runs() // measure ended with a sample; the next set-up begins with one
	if run.verb, err = verbLoops(plain.fab, w.clients); err != nil {
		return nil, fmt.Errorf("verb loop: %w", err)
	}
	if run.nextNs, run.nextAllocs, err = ycsbLoop(w, seed); err != nil {
		return nil, err
	}
	wall["layers"] = time.Since(t0).Seconds()
	res.note(plain.verify())
	run.plainSetup = plain.setup
	plain = nil

	t0 = time.Now()
	if run.traced, err = newInstance(w, seed, true, ref); err != nil {
		return nil, err
	}
	wall["setup_traced"] = time.Since(t0).Seconds()
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(filepath.Dir(traceOut), w.name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	t0 = time.Now()
	tr := newTracer()
	run.tm = run.traced.measure(seconds/2, tr)
	pprof.StopCPUProfile()
	wall["measure_traced"] = time.Since(t0).Seconds()
	res.note(run.tm.totals())
	res.note(run.traced.verify())

	t0 = time.Now()
	if err := writeTrace(traceOut, w.name, tr.all()); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	wall["write_trace"] = time.Since(t0).Seconds()

	res.PerLayer = run.perLayer()
	res.finish(run.um, ref)
	return res, nil
}

// indexCall names the client call an op kind turns into.
var indexCall = map[ycsb.OpKind]string{
	ycsb.OpRead: "search", ycsb.OpUpdate: "update", ycsb.OpInsert: "insert", ycsb.OpScan: "scan",
}

// perLayer folds the traced run into the per-layer metric set.
func (t *tracedRun) perLayer() metricSet {
	w, um, tm := t.w, t.um, t.tm
	set := metricSet{}
	for _, d := range perLayer {
		set[d.name] = metricValue{Unit: d.unit} // an absent op kind reads 0
	}
	p := func(name string, v float64) { set.set(perLayer, name, v) }
	// solo and host record a host time of the solo pass and of the verb
	// and generator loops, in reference-host units like every other.
	soloSlow, layersSlow := t.ref.around(t.soloAt), t.ref.around(t.layersAt)
	solo := func(name string, v float64) { p(name, v/soloSlow) }
	host := func(name string, v float64) { p(name, v/layersSlow) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	host("ycsb.next_host_ns", t.nextNs)
	p("ycsb.next_allocs", t.nextAllocs)

	for kind, m := range t.solo.byKind {
		if w.batch > 0 {
			solo("index.searchbatch_host_ns_per_key", m.callHost/float64(w.batch))
		} else {
			solo("index."+indexCall[kind]+"_host_ns", m.callHost)
		}
	}
	solo("solo.host_ns_per_op", t.solo.hostNsOp)
	p("solo.sim_ns_per_op", t.solo.simNsOp)
	p("solo.trips_per_op", t.solo.tripsOp)
	p("solo.read_bytes_per_op", t.solo.readBytesOp)

	tot, utot := tm.sum(), um.sum()
	ops, st, nic := tot.ops, tot.stats, tot.nicDur
	p("index.cache_hit_ratio", ratio(tm.cacheHits, tm.cacheHits+tm.cacheMisses))
	p("index.hotspot_hit_ratio", ratio(tm.hotHits, tm.hotLookups))
	p("index.cache_bytes", float64(t.traced.sys.CacheBytes()))
	p("index.retries_per_op", ratio(tm.reg1.CounterDelta(tm.reg0, obs.NameRetry), ops))
	p("index.torn_reads_per_op", ratio(tm.reg1.CounterDelta(tm.reg0, obs.NameTornRead), ops))
	p("index.lock_backoffs_per_op", ratio(tm.reg1.CounterDelta(tm.reg0, obs.NameLockBackoff), ops))
	p("index.sibling_chases_per_op", ratio(tm.reg1.CounterDelta(tm.reg0, obs.NameSiblingChase), ops))
	p("index.splits", float64(tm.reg1.CounterDelta(tm.reg0, obs.NameSplit)))
	p("rdwc.delegated_reads_per_op", ratio(tm.delegated, ops))
	p("rdwc.combined_writes_per_op", ratio(tm.combined, ops))

	for _, ca := range t.traced.obs.Sink().FlightRecorder().Attribution().Classes {
		for _, c := range flightClasses {
			if c.String() != ca.Class {
				continue
			}
			for _, ph := range flightPhases {
				p(flightMetric(c, ph), ca.MeanShare[ph.String()])
			}
		}
	}

	p("dmsim.trips_per_op", ratio(st.Trips, ops))
	p("dmsim.verbs_per_op", ratio(st.Reads+st.Writes+st.Atomics+st.RPCs, ops))
	p("dmsim.read_bytes_per_op", ratio(st.BytesRead, ops))
	p("dmsim.write_bytes_per_op", ratio(st.BytesWritten, ops))
	p("dmsim.nic_utilization", ratio(nic.ServedNs, tot.simNs))
	p("dmsim.nic_queue_ns_per_verb", ratio(nic.QueuedNs, nic.Verbs))
	p("dmsim.nic_service_ns_per_verb", ratio(nic.ServedNs, nic.Verbs))
	host("dmsim.verb_host_ns", t.verb.soloHostNs)
	p("dmsim.verb_allocs", t.verb.soloAllocs)
	host("dmsim.cohort_verb_host_ns", t.verb.cohortCPUNs)
	p("dmsim.concurrency_cpu_ns_per_op", um.hostCPUNsPerOp()-t.solo.hostNsOp/soloSlow)

	for c, name := range classNames {
		p("sim."+name+"_p50_us", quantileUs(um.lat[c], 0.50))
		p("sim."+name+"_p99_us", quantileUs(um.lat[c], 0.99))
	}

	ps, ts := t.plainSetup, t.traced.setup
	psl, tsl := ps.slowdown(t.ref), ts.slowdown(t.ref)
	p("setup.fabric_s", (ps.fabricS/psl+ts.fabricS/tsl)/2)
	p("setup.load_s", (ps.loadS/psl+ts.loadS/tsl)/2)
	p("setup.warm_s", (ps.warmS/psl+ts.warmS/tsl)/2)
	p("setup.load_host_ns_per_key", ps.loadS/psl*1e9/float64(w.loadN))
	p("setup.load_sim_mops", float64(w.loadN)*1e3/float64(ps.loadSimNs))

	p("host.gc_cycles", float64(utot.gcs))
	p("host.bytes_per_op", float64(utot.bytes)/float64(utot.ops))
	p("host.slowdown", t.ref.slowdown())

	p("driver.trace_overhead_pct", 100*(tm.hostCPUNsPerOp()/um.hostCPUNsPerOp()-1))
	p("driver.trace_sim_drift_pct", 100*(tm.simMops()/um.simMops()-1))
	return set
}
