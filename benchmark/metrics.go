package main

import (
	"encoding/json"
	"fmt"

	"chime/internal/obs"
)

// metricDecl declares one metric: the single table BENCHMARK.json is
// generated from (-spec) and -compare takes its bounds from; the
// package test fails if the committed file and this table disagree.
type metricDecl struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds
// and the default of -seconds).
const runSeconds = 8

// endToEnd is what a user of the simulator sees. sim_* are in virtual
// time (the paper's clock), host_* in host time (what simulating costs).
// Every workload emits every metric, so sim_p50_us/sim_p99_us are the
// latency of the workload's primary op kind; the per-kind latencies of a
// mixed workload are per-layer metrics (sim.<kind>_*).
var endToEnd = []metricDecl{
	{"sim_mops", "Mops", "higher", 0.03},
	{"sim_p50_us", "us", "lower", 0.05},
	{"sim_p99_us", "us", "lower", 0.10},
	{"host_ns_per_op", "ns/op", "lower", 0.25},
	{"host_cpu_ns_per_op", "ns/op", "lower", 0.25},
	{"host_allocs_per_op", "allocs/op", "lower", 0.10},
	{"host_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// flightClasses and flightPhases select the flight-recorder cells worth
// a metric: the op classes the workloads issue and the phases that hold
// virtual latency on them (mn_* and fault_retry are always zero here).
var (
	flightClasses = []obs.OpClass{obs.OpSearch, obs.OpInsert, obs.OpUpdate, obs.OpScan, obs.OpBatchRead}
	flightPhases  = []obs.Phase{
		obs.PhaseDescend, obs.PhaseCacheLookup, obs.PhaseLockBackoff,
		obs.PhaseWriteCombine, obs.PhaseNICQueue, obs.PhaseNICService,
	}
)

func flightMetric(c obs.OpClass, p obs.Phase) string {
	return fmt.Sprintf("flight.%s.%s_share", c, p)
}

// perLayer lists the single-layer metrics of the traced run, prefixed by
// module ("index" is internal/core, or internal/sherman on sherman_a).
// A metric whose op kind a workload lacks reads 0 there.
var perLayer = func() []metricDecl {
	m := []metricDecl{
		{name: "ycsb.next_host_ns", unit: "ns/op", better: "lower"},
		{name: "ycsb.next_allocs", unit: "allocs/op", better: "lower"},

		{name: "index.search_host_ns", unit: "ns/op", better: "lower"},
		{name: "index.update_host_ns", unit: "ns/op", better: "lower"},
		{name: "index.insert_host_ns", unit: "ns/op", better: "lower"},
		{name: "index.scan_host_ns", unit: "ns/op", better: "lower"},
		{name: "index.searchbatch_host_ns_per_key", unit: "ns/key", better: "lower"},

		{name: "index.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "index.hotspot_hit_ratio", unit: "ratio", better: "higher"},
		{name: "index.cache_bytes", unit: "bytes", better: "lower"},
		{name: "index.retries_per_op", unit: "1/op", better: "lower"},
		{name: "index.torn_reads_per_op", unit: "1/op", better: "lower"},
		{name: "index.lock_backoffs_per_op", unit: "1/op", better: "lower"},
		{name: "index.sibling_chases_per_op", unit: "1/op", better: "lower"},
		{name: "index.splits", unit: "count", better: "lower"},
		{name: "rdwc.delegated_reads_per_op", unit: "1/op", better: "higher"},
		{name: "rdwc.combined_writes_per_op", unit: "1/op", better: "higher"},
	}
	for _, c := range flightClasses {
		for _, p := range flightPhases {
			m = append(m, metricDecl{name: flightMetric(c, p), unit: "ratio", better: "lower"})
		}
	}
	m = append(m, []metricDecl{
		{name: "dmsim.trips_per_op", unit: "1/op", better: "lower"},
		{name: "dmsim.verbs_per_op", unit: "1/op", better: "lower"},
		{name: "dmsim.read_bytes_per_op", unit: "bytes/op", better: "lower"},
		{name: "dmsim.write_bytes_per_op", unit: "bytes/op", better: "lower"},
		{name: "dmsim.nic_utilization", unit: "ratio", better: "lower"},
		{name: "dmsim.nic_queue_ns_per_verb", unit: "ns/verb", better: "lower"},
		{name: "dmsim.nic_service_ns_per_verb", unit: "ns/verb", better: "lower"},
		{name: "dmsim.verb_host_ns", unit: "ns/verb", better: "lower"},
		{name: "dmsim.verb_allocs", unit: "allocs/verb", better: "lower"},
		{name: "dmsim.cohort_verb_host_ns", unit: "ns/verb", better: "lower"},
		{name: "dmsim.concurrency_cpu_ns_per_op", unit: "ns/op", better: "lower"},

		{name: "solo.host_ns_per_op", unit: "ns/op", better: "lower"},
		{name: "solo.sim_ns_per_op", unit: "ns/op", better: "lower"},
		{name: "solo.trips_per_op", unit: "1/op", better: "lower"},
		{name: "solo.read_bytes_per_op", unit: "bytes/op", better: "lower"},

		{name: "sim.read_p50_us", unit: "us", better: "lower"},
		{name: "sim.read_p99_us", unit: "us", better: "lower"},
		{name: "sim.write_p50_us", unit: "us", better: "lower"},
		{name: "sim.write_p99_us", unit: "us", better: "lower"},
		{name: "sim.scan_p50_us", unit: "us", better: "lower"},
		{name: "sim.scan_p99_us", unit: "us", better: "lower"},

		{name: "setup.fabric_s", unit: "s", better: "lower"},
		{name: "setup.load_s", unit: "s", better: "lower"},
		{name: "setup.warm_s", unit: "s", better: "lower"},
		{name: "setup.load_host_ns_per_key", unit: "ns/key", better: "lower"},
		{name: "setup.load_sim_mops", unit: "Mops", better: "higher"},

		{name: "host.gc_cycles", unit: "count", better: "lower"},
		{name: "host.bytes_per_op", unit: "bytes/op", better: "lower"},
		{name: "host.slowdown", unit: "ratio", better: "lower"},

		{name: "driver.trace_overhead_pct", unit: "%", better: "lower"},
		{name: "driver.trace_sim_drift_pct", unit: "%", better: "lower"},
	}...)
	return m
}()

// metricValue is one emitted measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a declaration table.
type metricSet map[string]metricValue

func (s metricSet) set(decls []metricDecl, name string, v float64) {
	for _, d := range decls {
		if d.name == name {
			s[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
