package main

import "chime/internal/ycsb"

// Sizes shared by every workload. The paper sizes its caches against a
// 60 M-key dataset; paperBudget scales a budget to loadN with no floor.
const (
	loadN     = 100_000
	valueSize = 8

	fitBudget = 2 << 20 // holds every internal node / every key at loadN

	paperKeys = 60_000_000
)

func paperBudget(bytesAt60M int64) int64 { return bytesAt60M * loadN / paperKeys }

// opClass buckets ops for the per-kind latency metrics.
type opClass int

const (
	classRead opClass = iota
	classWrite
	classScan
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

func classOf(k ycsb.OpKind) opClass {
	switch k {
	case ycsb.OpRead:
		return classRead
	case ycsb.OpScan:
		return classScan
	default:
		return classWrite
	}
}

// workload is one set of inputs the benchmark runs. A scaled copy
// (scale) keeps every ratio and is what the package's test runs.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries it

	system  string // key of bench.Factories
	mix     ycsb.Mix
	clients int

	loadN        int
	cacheBytes   int64
	hotspotBytes int64
	disableRDWC  bool

	// batch > 0 makes every client issue SearchBatch of batch keys at
	// depth; an "op" is then one key.
	batch, depth int

	// perClient is the ops (keys, for a batch workload) one client
	// issues per measured round; warm-up is warmRounds such rounds and
	// belongs to set-up. Rounds repeat until -seconds is used up, so a
	// round is sized to a few hundred ms of host time at the baseline.
	perClient  int
	warmRounds int

	// primary is the op kind whose latency is the end-to-end
	// sim_p50_us/sim_p99_us: the kind the workload exists to measure.
	primary opClass
}

var uniformC = ycsb.Mix{Name: "C-uniform", ReadPct: 1.0, Dist: ycsb.DistUniform}

var workloads = []workload{
	{
		name: "c_fit", system: "CHIME", mix: ycsb.WorkloadC, clients: 32,
		why:          "read fast path with everything cached: index-client CPU and the scheduler dominate host time, dmsim does little",
		loadN:        loadN,
		cacheBytes:   fitBudget,
		hotspotBytes: fitBudget,
		perClient:    3000, warmRounds: 2, primary: classRead,
	},
	{
		name: "c_paper", system: "CHIME", mix: ycsb.WorkloadC, clients: 32,
		why:          "same reads with cache budgets at the paper's 100MB:30MB:60M-key ratio: eviction does most of the host work",
		loadN:        loadN,
		cacheBytes:   paperBudget(100 << 20),
		hotspotBytes: paperBudget(30 << 20),
		perClient:    200, warmRounds: 6, primary: classRead,
	},
	{
		name: "c_cold", system: "CHIME", mix: uniformC, clients: 32,
		why:          "uniform reads with both caches off: every op is a full root descent, so the dmsim verb path, NIC model and gate do the work",
		loadN:        loadN,
		cacheBytes:   1,
		hotspotBytes: 0,
		perClient:    1000, warmRounds: 1, primary: classRead,
	},
	{
		name: "mget8_cold", system: "CHIME", mix: uniformC, clients: 8,
		why:          "c_cold's descents through SearchBatch(64 keys, depth 8): the posted-verb state machine instead of the sync path",
		loadN:        loadN,
		cacheBytes:   1,
		hotspotBytes: 0,
		disableRDWC:  true,
		batch:        64, depth: 8,
		perClient: 64 * 60, warmRounds: 1, primary: classRead,
	},
	{
		name: "a_mixed", system: "CHIME", mix: ycsb.WorkloadA, clients: 32,
		why:          "50% updates beside reads on hot keys: lock CAS and backoff, lock-table handover, RDWC combining, hotspot invalidation",
		loadN:        loadN,
		cacheBytes:   fitBudget,
		hotspotBytes: fitBudget,
		perClient:    1500, warmRounds: 2, primary: classWrite,
	},
	{
		name: "e_scan", system: "CHIME", mix: ycsb.WorkloadE, clients: 32,
		why:          "95% scans of up to 100 keys plus 5% inserts: sibling chase, bandwidth-bound NIC, allocation-heavy, tree grows under scans",
		loadN:        loadN,
		cacheBytes:   fitBudget,
		hotspotBytes: fitBudget,
		perClient:    125, warmRounds: 1, primary: classScan,
	},
	{
		name: "sherman_a", system: "Sherman", mix: ycsb.WorkloadA, clients: 32,
		why:          "a_mixed on the Sherman baseline: the other index engine, and the denominator of the paper's CHIME-vs-Sherman comparison",
		loadN:        loadN,
		cacheBytes:   fitBudget,
		hotspotBytes: fitBudget,
		perClient:    1500, warmRounds: 2, primary: classWrite,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale shrinks the dataset and the round to n keys, keeping the budget
// ratios; the package test uses it to run every workload in seconds.
func (w workload) scale(n int) workload {
	w.cacheBytes = max(1, w.cacheBytes*int64(n)/int64(w.loadN))
	w.hotspotBytes = w.hotspotBytes * int64(n) / int64(w.loadN)
	w.perClient = max(w.batch, w.perClient*n/w.loadN)
	w.loadN = n
	return w
}
