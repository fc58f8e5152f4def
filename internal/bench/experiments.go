package bench

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"chime/internal/dmsim"
	"chime/internal/offroute"
	"chime/internal/ycsb"
)

// Scale sets the size of every experiment. The paper runs 60M keys and
// up to 640 clients on a 10-machine RDMA cluster; this reproduction
// defaults to a laptop-sized dataset, with throughput and latency still
// measured in virtual fabric time so regime boundaries (bandwidth-bound
// vs IOPS-bound vs cache-miss-bound) land where the NIC model puts
// them, not where the host CPU does.
type Scale struct {
	LoadN       int   // items preloaded before measurement
	Ops         int   // total measured operations per run
	ClientSweep []int // simulated client counts for sweep figures
	Clients     int   // client count for fixed-client figures
	MNSize      int   // bytes of remote memory per MN
	Trials      int   // trials for load-factor experiments

	// Obs, when set, threads one observer through every system an
	// experiment builds and every point it runs (chime-bench sets this
	// for -metrics-json / -trace).
	Obs *Observer
}

// SmallScale keeps `go test ./...` fast.
var SmallScale = Scale{
	LoadN:       12000,
	Ops:         6000,
	ClientSweep: []int{8, 64},
	Clients:     16,
	MNSize:      1 << 30,
	Trials:      5,
}

// DefaultScale is what cmd/chime-bench and the bench_test targets use.
// The client sweep reaches past the point where whole-leaf readers
// saturate the NIC (the regime Figures 3b and 12 probe with 640 clients
// on the paper's testbed).
var DefaultScale = Scale{
	LoadN:       100000,
	Ops:         40000,
	ClientSweep: []int{8, 64, 256},
	Clients:     64,
	MNSize:      1536 << 20, // total pool bytes, split across MNs
	Trials:      20,
}

// HeadToHeadSystems is the paper's comparison order.
var HeadToHeadSystems = []string{"CHIME", "Sherman", "ROLEX", "SMART"}

// baseConfig assembles the standard single-testbed system config:
// 100 MB internal-node cache and 30 MB hotspot buffer (§5.1 defaults),
// scaled to the dataset by the same ratio the paper uses when the
// dataset itself is scaled.
func baseConfig(f *dmsim.Fabric, sc Scale, loadKeys []uint64) SystemConfig {
	return SystemConfig{
		Fabric:       f,
		LoadKeys:     loadKeys,
		ValueSize:    8,
		CacheBytes:   cacheBudgetFor(sc),
		HotspotBytes: hotspotBudgetFor(sc),
		Obs:          sc.Obs,
	}
}

// cacheBudgetFor scales the paper's 100 MB / 60M-key cache to the run's
// dataset (≈1.7 bytes per key, floor 2 MB so tiny test runs behave).
func cacheBudgetFor(sc Scale) int64 {
	b := int64(sc.LoadN) * 100 << 20 / 60_000_000
	if b < 2<<20 {
		b = 2 << 20
	}
	return b
}

// hotspotBudgetFor scales the paper's 30 MB hotspot buffer the same way.
func hotspotBudgetFor(sc Scale) int64 {
	b := int64(sc.LoadN) * 30 << 20 / 60_000_000
	if b < 512<<10 {
		b = 512 << 10
	}
	return b
}

// buildSystem stands up one named system on a fresh fabric. Scale.MNSize
// is the memory pool's TOTAL size, split across the MNs. The caller
// closes cfg.Fabric when it is done with the system, so back-to-back
// rows hold one pool's touched pages at a time.
func buildSystem(name string, sc Scale, mns int, cfgMut func(*SystemConfig)) (System, SystemConfig, error) {
	cfg := baseConfig(nil, sc, SortedLoadKeys(sc.LoadN))
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	// The fabric is built after the mutator so a caller can supply one of
	// its own (another scheduler, an MN compute model, persistence).
	if cfg.Fabric == nil {
		cfg.Fabric = DefaultFabric(mns, sc.MNSize/mns)
	}
	cfg.Fabric.SetObserver(cfg.Obs.Sink())
	factory, ok := Factories[name]
	if !ok {
		return nil, cfg, fmt.Errorf("bench: unknown system %q", name)
	}
	sys, err := factory(cfg)
	if err != nil {
		cfg.Fabric.Close()
	}
	return sys, cfg, err
}

// runPoint is the common "one measured point" helper.
func runPoint(sys System, cfg SystemConfig, mix ycsb.Mix, clients, totalOps int, seed int64) (Result, error) {
	return Run(sys, RunConfig{
		Mix:          mix,
		Clients:      clients,
		OpsPerClient: max(totalOps/clients, 1),
		ValueSize:    cfg.ValueSize,
		KeySpace:     NewKeySpaceFor(cfg.LoadKeys),
		Seed:         seed,
		Obs:          cfg.Obs,
	})
}

// measured builds one fresh single-MN system, runs one point on it at
// the scale's fixed client count, and labels the row.
func measured(label, name string, sc Scale, mut func(*SystemConfig), mix ycsb.Mix, seed int64) (Result, error) {
	sys, cfg, err := buildSystem(name, sc, 1, mut)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", label, err)
	}
	defer cfg.Fabric.Close()
	r, err := runPoint(sys, cfg, mix, sc.Clients, sc.Ops, seed)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", label, mix.Name, err)
	}
	r.System = label
	return r, nil
}

// point is one measured point on a fabric of its own, the unit the
// determinism-pinning experiments (offload, attribution, persist) double-
// run: a fresh single-MN fabric, a single-threaded bulk load (the tree
// under every point is then the one the two-clock benchmark and the
// single-client goldens build), one workload.
type point struct {
	mnCPUs      int    // 0 = model default
	mnServiceNs int64  // 0 = model default
	persistDir  string // "" = durability plane off
	offload     offroute.Mode

	// cold drops the CN cache, the hotspot buffer and RDWC: every
	// one-sided op pays the full descent.
	cold bool

	mix     ycsb.Mix
	clients int
	ops     int
	seed    int64
}

// run builds the named system for the point, measures it, and returns
// the row with the run's fingerprint.
func (p point) run(name string, sc Scale) (Result, string, error) {
	sys, cfg, err := buildSystem(name, sc, 1, func(c *SystemConfig) {
		fcfg := testbedConfig(1, sc.MNSize)
		fcfg.MNCPUs = p.mnCPUs
		fcfg.MNServiceTime = time.Duration(p.mnServiceNs)
		fcfg.Persist.Dir = p.persistDir
		c.Fabric = dmsim.MustNewFabric(fcfg)
		c.Offload = p.offload
		c.LoadClients = 1
		if p.cold {
			c.CacheBytes = 0
			c.HotspotBytes = 0
			c.DisableRDWC = true
		}
	})
	if err != nil {
		return Result{}, "", err
	}
	defer cfg.Fabric.Close()
	r, err := runPoint(sys, cfg, p.mix, p.clients, p.ops, p.seed)
	if err != nil {
		return Result{}, "", err
	}
	return r, fingerprint(cfg.Fabric, r), nil
}

// fingerprint hashes everything a run makes observable: the caller's
// parts (the Result row; for index-free runs each client's clock and
// counters) plus the fabric's NIC, MN-CPU, persistence and frontier
// totals. Two runs fingerprint equal iff they were bit-identical.
func fingerprint(f *dmsim.Fabric, parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v", p)
	}
	fmt.Fprintf(h, "%+v%+v%+v%d", f.TotalNICStats(), f.TotalMNCPUStats(), f.PersistStats(), f.Frontier())
	return fmt.Sprintf("%016x", h.Sum64())
}

// twice makes a deterministic measurement two times, on state built
// afresh each time, and returns the second one with the fingerprint
// both share. The simulator has one deterministic scheduler, so two
// runs that fingerprint differently are a bug to report, not a property
// of the row.
func twice[T any](run func() (T, string, error)) (T, string, error) {
	v, fp, err := run()
	if err != nil {
		return v, "", err
	}
	v, again, err := run()
	if err != nil {
		return v, "", fmt.Errorf("rerun: %w", err)
	}
	if fp != again {
		return v, "", fmt.Errorf("not bit-identical across two runs: fingerprints %s and %s", fp, again)
	}
	return v, fp, nil
}

// Experiment is a named, runnable reproduction of one paper artifact or
// one beyond-the-paper plane. Adding one is one file: the row type with
// its json/col tags, a function from Scale to a Table, and a register
// call in init (DESIGN.md §4).
type Experiment struct {
	ID    string // e.g. "fig12", "tab1", "offload"
	Title string

	// Run streams a paper-figure experiment's text to w as it goes.
	// Exactly one of Run and Table is set.
	Run func(w io.Writer, sc Scale) error
	// Table runs an experiment that has a BENCH_*.json artifact and
	// returns its rows; Rows is the zero value of their slice type, so
	// ReadTable can decode the artifact back.
	Table func(sc Scale) (*Table, error)
	Rows  any

	// Flags registers the command-line flags the experiment owns; Table
	// reads them through the variables they are bound to.
	Flags func(fs *flag.FlagSet)

	// HostSide marks an experiment that measures the simulator rather
	// than an index: Scale's load and op counts do not apply (Heading
	// omits them) and its client axis is its own unless the caller
	// overrides ClientSweep.
	HostSide bool
}

// Heading is the line a front end prints above the experiment's output.
func (e Experiment) Heading(sc Scale) string {
	if e.HostSide {
		return fmt.Sprintf("%s: %s", e.ID, e.Title)
	}
	return fmt.Sprintf("%s: %s (load=%d ops=%d)", e.ID, e.Title, sc.LoadN, sc.Ops)
}

// Execute is the one dispatch path: it runs the experiment, writes its
// text to w and returns its table, which for a paper-figure experiment
// carries the printed lines.
func (e Experiment) Execute(w io.Writer, sc Scale) (*Table, error) {
	if e.Table != nil {
		t, err := e.Table(sc)
		if err != nil {
			return nil, err
		}
		_, err = io.WriteString(w, t.Text())
		return t, err
	}
	var out strings.Builder
	if err := e.Run(io.MultiWriter(w, &out), sc); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	return &Table{ID: e.ID, Params: sizeParams(sc), Extra: []Param{{"output", lines}}}, nil
}

// Experiments is the registry the CLI and bench targets dispatch on,
// populated by the experiment files' init functions.
var Experiments []Experiment

func register(e Experiment) { Experiments = append(Experiments, e) }

// FindExperiment resolves an experiment by ID.
func FindExperiment(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// ListFlag is a flag.Value that parses a comma-separated list element by
// element into *dst, so a bad element is a usage error at flag.Parse.
func ListFlag[T any](dst *[]T, parse func(string) (T, error)) flag.Value {
	return listFlag[T]{dst, parse}
}

type listFlag[T any] struct {
	dst   *[]T
	parse func(string) (T, error)
}

func (l listFlag[T]) String() string {
	if l.dst == nil {
		return ""
	}
	return strings.Trim(fmt.Sprint(*l.dst), "[]")
}

func (l listFlag[T]) Set(s string) error {
	*l.dst = nil
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := l.parse(part)
		if err != nil {
			return fmt.Errorf("bad element %q: %w", part, err)
		}
		*l.dst = append(*l.dst, v)
	}
	return nil
}

// PositiveInt parses one element of a list of counts (clients, depths).
func PositiveInt(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err == nil && v <= 0 {
		err = fmt.Errorf("must be positive")
	}
	return v, err
}
