package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
)

// cpuTimeNs is the process's user+system CPU time so far.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// manifest says where a result came from: every JSON result carries one.
type manifest struct {
	GitRev      string             `json:"git_rev"`
	GitModified bool               `json:"git_modified"`
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Workload    workloadParams     `json:"workload"`
	PhaseWallS  map[string]float64 `json:"phase_wall_s"`
}

// workloadParams are the workload settings a result depends on.
type workloadParams struct {
	Name         string `json:"name"`
	System       string `json:"system"`
	Mix          string `json:"mix"`
	Clients      int    `json:"clients"`
	LoadN        int    `json:"load_n"`
	CacheBytes   int64  `json:"cache_bytes"`
	HotspotBytes int64  `json:"hotspot_bytes"`
	DisableRDWC  bool   `json:"disable_rdwc"`
	Batch        int    `json:"batch"`
	Depth        int    `json:"depth"`
	PerClient    int    `json:"ops_per_client_per_round"`
	WarmRounds   int    `json:"warm_rounds"`
}

func newManifest(w workload, seed int64, seconds float64, trace bool) manifest {
	m := manifest{
		GitRev:     "unknown", // a checkout that is not a git repository
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Workload: workloadParams{
			Name: w.name, System: w.system, Mix: w.mix.Name, Clients: w.clients,
			LoadN: w.loadN, CacheBytes: w.cacheBytes, HotspotBytes: w.hotspotBytes,
			DisableRDWC: w.disableRDWC, Batch: w.batch, Depth: w.depth,
			PerClient: w.perClient, WarmRounds: w.warmRounds,
		},
		PhaseWallS: map[string]float64{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRev = s.Value
			case "vcs.modified":
				m.GitModified = s.Value == "true"
			}
		}
	}
	return m
}
