package bench

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"chime/internal/core"
	"chime/internal/dmsim"
	"chime/internal/folio"
	"chime/internal/rdwc"
	"chime/internal/sherman"
	"chime/internal/ycsb"
)

// Persist experiment: the durability plane's three headline numbers.
//
//	overhead  — the same single-client write-bearing workload with the
//	            folio backend off and on: the write-behind log's
//	            virtual-time charge per acked update, as a throughput
//	            delta.
//	recovery  — MN kill + restart at increasing log lengths: recovery's
//	            virtual cost (snapshot materialization + log replay)
//	            grows with the unsnapshotted tail, which is the argument
//	            for periodic compaction.
//	warmstart — host wall-clock of restoring a loaded tree from its
//	            folio snapshot (fabric restore + Attach, no remote
//	            writes) vs bootstrapping and bulk-loading it cold. The
//	            acceptance bar is restore ≥5× faster than cold load.
//
// Every section double-runs its points; fingerprints over the Result
// row plus the fabric's NIC/MN-CPU/persistence totals must come back
// bit-identical, or the experiment fails.

// PersistRow is one measured point (BENCH_PERSIST.json). Sections fill
// disjoint column subsets.
type PersistRow struct {
	Section string `json:"section" col:"section,%-10s"`
	System  string `json:"system" col:"system,%-8s"`
	Persist bool   `json:"persist" col:"persist,%-7t"`

	Clients        int     `json:"clients,omitempty"`
	Ops            int64   `json:"ops,omitempty" col:"ops,%8d"`
	ThroughputMops float64 `json:"throughput_mops,omitempty" col:"Mops,%10.3f"`
	P50Us          float64 `json:"p50_us,omitempty" col:"p50(us),%9.1f"`
	P99Us          float64 `json:"p99_us,omitempty" col:"p99(us),%9.1f"`
	OverheadPct    float64 `json:"overhead_pct,omitempty" col:"ovhd%,%8.2f"`

	LogRecords int64 `json:"log_records,omitempty" col:"logRecs,%10d"`
	LogBytes   int64 `json:"log_bytes,omitempty"`
	RecoverNs  int64 `json:"recover_ns,omitempty" col:"recoverUs,%10.1f,/1e3"`

	ColdLoadMs float64 `json:"cold_load_ms,omitempty" col:"coldMs,%10.1f"`
	RestoreMs  float64 `json:"restore_ms,omitempty" col:"restoreMs,%9.1f"`
	Speedup    float64 `json:"warmstart_speedup,omitempty" col:"speedup,%8.1f"`

	Fingerprint string `json:"fingerprint"`
}

// persistMix is the overhead section's workload: write-heavy so the
// write-behind log sees every update, single-client so the delta is the
// log's charge and not a change in who contends with whom.
var persistMix = ycsb.WorkloadA

// runOverhead measures every system with the log off and on.
func runOverhead(sc Scale) ([]PersistRow, error) {
	var rows []PersistRow
	for _, name := range HeadToHeadSystems {
		var offMops float64
		for _, persist := range []bool{false, true} {
			run := func() (Result, string, error) {
				pt := point{mix: persistMix, clients: 1, ops: sc.Ops / 2, seed: 31}
				if persist {
					dir, err := folio.ScratchDir("chime-persist-overhead")
					if err != nil {
						return Result{}, "", err
					}
					defer folio.RemoveDir(dir)
					pt.persistDir = dir
				}
				return pt.run(name, sc)
			}
			r, fp, err := twice(run)
			if err != nil {
				return nil, fmt.Errorf("persist overhead %s persist=%t: %w", name, persist, err)
			}
			row := PersistRow{
				Section:        "overhead",
				System:         name,
				Persist:        persist,
				Clients:        r.Clients,
				Ops:            r.Ops,
				ThroughputMops: r.ThroughputMops,
				P50Us:          r.P50Us,
				P99Us:          r.P99Us,
				Fingerprint:    fp,
			}
			if !persist {
				offMops = r.ThroughputMops
			} else if offMops > 0 {
				row.OverheadPct = (offMops - r.ThroughputMops) / offMops * 100
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runRecovery measures MN kill/restart cost against log length on a
// bare fabric: one client appends n word-writes, the MN crash-stops,
// and the restart's replay cost is read off the recovery stats.
func runRecovery(sc Scale) ([]PersistRow, error) {
	lens := []int{sc.Ops / 8, sc.Ops / 2, sc.Ops * 2}
	var rows []PersistRow
	for _, n := range lens {
		if n < 256 {
			n = 256
		}
		row, fp, err := twice(func() (PersistRow, string, error) {
			dir, err := folio.ScratchDir("chime-persist-recovery")
			if err != nil {
				return PersistRow{}, "", err
			}
			defer folio.RemoveDir(dir)
			cfg := testbedConfig(1, 64<<20)
			cfg.Persist.Dir = dir
			f := dmsim.MustNewFabric(cfg)
			defer f.Close()
			c := f.NewClient()
			region, err := c.AllocRPC(0, 1<<20)
			if err != nil {
				return PersistRow{}, "", err
			}
			buf := make([]byte, 64)
			for i := 0; i < n; i++ {
				if err := c.Write(region.Add(uint64(i*64%(1<<20))), buf); err != nil {
					return PersistRow{}, "", err
				}
			}
			ps := f.PersistStats()
			if err := f.KillMN(0); err != nil {
				return PersistRow{}, "", err
			}
			stats, err := f.RestartMN(0)
			if err != nil {
				return PersistRow{}, "", err
			}
			return PersistRow{
				Section:    "recovery",
				System:     "fabric",
				Persist:    true,
				Ops:        int64(n),
				LogRecords: ps.Records,
				LogBytes:   ps.Bytes,
				RecoverNs:  stats.RecoverNs,
			}, fingerprint(f, stats, ps), nil
		})
		if err != nil {
			return nil, fmt.Errorf("persist recovery n=%d: %w", n, err)
		}
		row.Fingerprint = fp
		rows = append(rows, row)
	}
	return rows, nil
}

// superOf extracts the tree's super-block address from a freshly built
// system (warm-start persists it as fabric metadata).
func superOf(sys System) (dmsim.GAddr, error) {
	switch s := sys.(type) {
	case *chimeSystem:
		return s.ix.Super(), nil
	case *shermanSystem:
		return s.ix.Super(), nil
	}
	return dmsim.NilGAddr, fmt.Errorf("bench: %s has no warm-start attach path", sys.Name())
}

// formatSuper / parseSuper round-trip a GAddr through the folio
// metadata section (a string table) via the packed-pointer encoding,
// the same 8-byte form remote pointers use on the wire.
func formatSuper(a dmsim.GAddr) string { return fmt.Sprintf("%#x", a.Pack()) }

func parseSuper(s string) (dmsim.GAddr, error) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return dmsim.NilGAddr, fmt.Errorf("bench: bad super meta %q: %w", s, err)
	}
	return dmsim.UnpackGAddr(v), nil
}

// attachWarm rebuilds a System on a warm-started fabric without any
// remote writes: the tree is taken from the restored MN image, the root
// pointer from the persisted metadata.
func attachWarm(name string, fab *dmsim.Fabric, cfg SystemConfig) (System, error) {
	super, err := parseSuper(fab.PersistMeta("super"))
	if err != nil {
		return nil, err
	}
	switch name {
	case "CHIME":
		ix, err := core.Attach(fab, chimeOptions(cfg), super)
		if err != nil {
			return nil, err
		}
		s := &chimeSystem{ix: ix, cn: ix.NewComputeNode(cfg.CacheBytes, cfg.HotspotBytes), comb: rdwc.NewCombiner()}
		s.cn.SetObserver(cfg.Obs.Sink())
		s.newC = withRDWC(cfg, s.comb, func() Client { return adaptBatching(s.cn.NewClient()) })
		return s, nil
	case "Sherman":
		ix, err := sherman.Attach(fab, shermanOptions(cfg), super)
		if err != nil {
			return nil, err
		}
		s := &shermanSystem{ix: ix, cn: ix.NewComputeNode(cfg.CacheBytes), comb: rdwc.NewCombiner()}
		s.cn.SetObserver(cfg.Obs.Sink())
		s.newC = withRDWC(cfg, s.comb, func() Client { return adaptBatching(s.cn.NewClient()) })
		return s, nil
	}
	return nil, fmt.Errorf("bench: %s has no warm-start attach path", name)
}

// warmstartPoint measures one system's cold-load vs restore wall-clock.
// The snapshot under dir is created on first use and reused thereafter
// (the -snapshot contract: load once, restore forever).
func warmstartPoint(name string, sc Scale, dir string) (PersistRow, error) {
	keys := SortedLoadKeys(sc.LoadN)

	// Cold: bootstrap + bulk load on a plain fabric, host-wall-timed.
	// (Wall time is the point: this is the host-side cost warm-start
	// amortizes, exactly like the scale experiment's capacity numbers.)
	// Each phase closes its fabric, so no timed phase runs against the
	// resident pages of the one before.
	coldMs, err := func() (float64, error) {
		fabC := DefaultFabric(1, sc.MNSize)
		defer fabC.Close()
		cfgC := baseConfig(fabC, sc, keys)
		start := time.Now() //lint:allow virtualclock warm-start compares host wall-clock by design
		if _, err := Factories[name](cfgC); err != nil {
			return 0, fmt.Errorf("cold load: %w", err)
		}
		return float64(time.Since(start).Microseconds()) / 1e3, nil //lint:allow virtualclock warm-start compares host wall-clock by design
	}()
	if err != nil {
		return PersistRow{}, err
	}

	pcfg := testbedConfig(1, sc.MNSize)
	pcfg.Persist.Dir = dir

	// Load once: only if the snapshot is not already cached in dir.
	if !folio.Exists(folio.Join(dir, "mn0.folio")) {
		if err := func() error {
			fabP := dmsim.MustNewFabric(pcfg)
			defer fabP.Close()
			cfgP := baseConfig(fabP, sc, keys)
			sysP, err := Factories[name](cfgP)
			if err != nil {
				return fmt.Errorf("snapshot load: %w", err)
			}
			super, err := superOf(sysP)
			if err != nil {
				return err
			}
			if err := fabP.SetPersistMeta("super", formatSuper(super)); err != nil {
				return err
			}
			if err := fabP.SnapshotPersist(); err != nil {
				return err
			}
			return fabP.ClosePersist()
		}(); err != nil {
			return PersistRow{}, err
		}
	}

	// Warm: fabric restore + attach, twice — the fingerprint of a small
	// read-only run over each restore pins restore determinism.
	restore := func() (float64, string, error) {
		fabW := dmsim.MustNewFabric(pcfg)
		defer fabW.Close()
		cfgW := baseConfig(fabW, sc, keys)
		// Restore cost = the fabric's own restore work (file decode +
		// materialization, measured inside NewFabric) plus the attach.
		// Fabric-shell construction is excluded, exactly as the cold
		// timer excludes it.
		start := time.Now() //lint:allow virtualclock warm-start compares host wall-clock by design
		sysW, err := attachWarm(name, fabW, cfgW)
		if err != nil {
			return 0, "", err
		}
		ms := float64(fabW.RestoreHostNs())/1e6 + float64(time.Since(start).Microseconds())/1e3 //lint:allow virtualclock warm-start compares host wall-clock by design
		r, err := runPoint(sysW, cfgW, offloadDeepMix, 1, 512, 17)
		if err != nil {
			return 0, "", fmt.Errorf("post-restore verification: %w", err)
		}
		return ms, fingerprint(fabW, r), nil
	}
	restoreMs, fp, err := twice(restore)
	if err != nil {
		return PersistRow{}, err
	}

	row := PersistRow{
		Section:     "warmstart",
		System:      name,
		Persist:     true,
		ColdLoadMs:  coldMs,
		RestoreMs:   restoreMs,
		Fingerprint: fp,
	}
	if restoreMs > 0 {
		row.Speedup = coldMs / restoreMs
	}
	return row, nil
}

// runPersist runs the three sections and returns the artifact rows.
// snapshotDir, when set, is the warm-start cache (the chime-bench
// -snapshot flag): each system's loaded tree is snapshotted under
// <dir>/<system> on first use and restored — instead of re-running the
// loader — thereafter, across invocations. Empty means a scratch dir,
// removed afterwards. The warm-start section covers warmSystems.
func runPersist(sc Scale, snapshotDir string, warmSystems []string) ([]PersistRow, error) {
	rows, err := runOverhead(sc)
	if err != nil {
		return nil, err
	}
	rec, err := runRecovery(sc)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rec...)

	if snapshotDir == "" {
		d, err := folio.ScratchDir("chime-persist-warmstart")
		if err != nil {
			return nil, err
		}
		defer folio.RemoveDir(d)
		snapshotDir = d
	}
	for _, name := range warmSystems {
		row, err := warmstartPoint(name, sc, folio.Join(snapshotDir, name))
		if err != nil {
			return nil, fmt.Errorf("persist warmstart %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// warmSystems are the two tree indexes with a warm Attach path.
var warmSystems = []string{"CHIME", "Sherman"}

// persistTable wraps the rows in the experiment's artifact envelope.
func persistTable(sc Scale, snapshotDir string, rows []PersistRow) *Table {
	t := &Table{ID: "persist", Params: sizeParams(sc), Rows: rows}
	if snapshotDir != "" {
		t.Params = append(t.Params, Param{"snapshot_dir", snapshotDir})
	}
	return t
}

func init() {
	var snapshotDir string
	register(Experiment{
		ID: "persist", Title: "durability overhead, recovery cost, warm-start", Rows: []PersistRow(nil),
		Flags: func(fs *flag.FlagSet) {
			fs.StringVar(&snapshotDir, "snapshot", "", "persist experiment: warm-start cache dir — each system is loaded once, snapshotted under <dir>/<system>, and restored instead of re-loaded thereafter (across invocations)")
		},
		Table: func(sc Scale) (*Table, error) {
			rows, err := runPersist(sc, snapshotDir, warmSystems)
			return persistTable(sc, snapshotDir, rows), err
		},
	})
}
