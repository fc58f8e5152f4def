package bench

import (
	"fmt"
	"io"
	"slices"

	"chime/internal/ycsb"
)

// Main evaluation experiments (§5.2): the YCSB comparison, the
// variable-length variant, cache consumption and Table 1 round trips.

func init() {
	register(Experiment{ID: "main", Title: "Head-to-head with observability columns (retries, cache, NIC)", Run: MainObs})
	register(Experiment{ID: "fig12", Title: "YCSB throughput-latency comparison", Run: Fig12})
	register(Experiment{ID: "fig13", Title: "Variable-length KV comparison", Run: Fig13})
	register(Experiment{ID: "fig14", Title: "Cache consumption vs dataset size", Run: Fig14})
	register(Experiment{ID: "tab1", Title: "Round trips per operation", Run: Table1})
}

// MainObs runs the four systems head to head on YCSB A and C and prints
// the observability columns Run folds into each row: protocol-event
// rates (retries, torn reads, lock backoffs, sibling/overflow chases),
// cache and hotspot hit ratios, NIC utilization, and the
// read-delegation/write-combining totals. It reuses the Scale's
// observer when chime-bench attached one (-metrics-json / -trace) and
// creates its own otherwise, so the event columns are always populated.
func MainObs(w io.Writer, sc Scale) error {
	if sc.Obs == nil {
		sc.Obs = NewObserver(false)
	}
	for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC} {
		fmt.Fprintf(w, "# main: YCSB %s observability summary\n", mix.Name)
		var rows []Result
		for _, name := range HeadToHeadSystems {
			if !workloadSupported(name, mix) {
				continue
			}
			sys, cfg, err := buildSystem(name, sc, 1, nil)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, mix.Name, err)
			}
			r, err := runPoint(sys, cfg, mix, sc.Clients, sc.Ops, 20)
			cfg.Fabric.Close()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, mix.Name, err)
			}
			rows = append(rows, r)
		}
		fmt.Fprint(w, FormatObsResults(rows))
	}
	return nil
}

// workloadSupported reports whether a system runs a workload (ROLEX is
// excluded from YCSB LOAD because its models are pre-trained, exactly
// as in the paper).
func workloadSupported(system string, mix ycsb.Mix) bool {
	return !(system == "ROLEX" && mix.Name == "LOAD")
}

// Fig12 reproduces Figure 12: throughput-latency across YCSB A, B, C,
// D, E and LOAD for all four indexes, sweeping client counts.
func Fig12(w io.Writer, sc Scale) error {
	mixes := []ycsb.Mix{
		ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC,
		ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadLoad,
	}
	for _, mix := range mixes {
		fmt.Fprintf(w, "# Figure 12: YCSB %s\n", mix.Name)
		var rows []Result
		for _, name := range HeadToHeadSystems {
			if !workloadSupported(name, mix) {
				continue
			}
			sys, cfg, err := buildSystem(name, sc, 1, nil)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, mix.Name, err)
			}
			for _, clients := range sc.ClientSweep {
				r, err := runPoint(sys, cfg, mix, clients, sc.Ops, 12)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", name, mix.Name, err)
				}
				rows = append(rows, r)
			}
			cfg.Fabric.Close()
		}
		fmt.Fprint(w, FormatResults(rows))
	}
	return nil
}

// Fig13 reproduces Figure 13: the variable-length-KV variants
// (CHIME-Indirect, Marlin≈Sherman-Indirect, ROLEX-Indirect, SMART-RCU)
// at a fixed client count. SMART keeps KVs in its leaf blocks (RCU
// style), so it runs unchanged with the larger value.
func Fig13(w io.Writer, sc Scale) error {
	const valueSize = 64
	mixes := []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE}
	for _, mix := range mixes {
		fmt.Fprintf(w, "# Figure 13: YCSB %s, %dB values, indirect allocation\n", mix.Name, valueSize)
		var rows []Result
		for _, name := range HeadToHeadSystems {
			if !workloadSupported(name, mix) {
				continue
			}
			label := map[string]string{
				"CHIME": "CHIME-Indirect", "Sherman": "Marlin(Sherman-Ind)",
				"ROLEX": "ROLEX-Indirect", "SMART": "SMART-RCU",
			}[name]
			r, err := measured(label, name, sc, func(c *SystemConfig) {
				c.ValueSize = valueSize
				c.Indirect = name != "SMART" // SMART-RCU keeps KV in the leaf
			}, mix, 13)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Fprint(w, FormatResults(rows))
	}
	return nil
}

// Fig14 reproduces Figure 14: computing-side cache consumption as the
// dataset grows, measured with ample cache budgets after a full read
// pass, plus the linear extrapolation to the paper's 60M keys.
func Fig14(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 14: cache consumption vs loaded items (ample cache)\n")
	fmt.Fprintf(w, "%-10s %10s %14s %14s %16s\n", "system", "items", "cacheMB", "B/key", "60M-extrap(MB)")
	sizes := []int{sc.LoadN / 2, sc.LoadN, sc.LoadN * 2}
	for _, name := range HeadToHeadSystems {
		for _, n := range sizes {
			subScale := sc
			subScale.LoadN = n
			sys, cfg, err := buildSystem(name, subScale, 1, func(c *SystemConfig) {
				c.CacheBytes = 4 << 30 // ample: hold everything
				c.HotspotBytes = 0     // count the index cache alone, as the paper does
			})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			// One full read pass populates the cache with every internal
			// node a client can touch.
			cl := sys.NewClient()
			for _, k := range cfg.LoadKeys {
				if _, err := cl.Search(k); err != nil {
					return fmt.Errorf("%s read pass: %w", name, err)
				}
			}
			bytes := sys.CacheBytes()
			cfg.Fabric.Close()
			perKey := float64(bytes) / float64(n)
			fmt.Fprintf(w, "%-10s %10d %14.2f %14.2f %16.1f\n",
				name, n, float64(bytes)/1e6, perKey, perKey*60e6/1e6)
		}
	}
	fmt.Fprintf(w, "(CHIME additionally uses a hotspot buffer, 30 MB at paper scale)\n")
	return nil
}

// Table1 reproduces Table 1: measured round trips per operation in the
// best case (all internal nodes cached) and worst case (no cache).
func Table1(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Table 1: round trips per operation (measured, CHIME)\n")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "op", "best", "worst")

	// What the tree says the scan row must read, from the census of the
	// tree the best-case probes ran on.
	var shape Shape
	var scanLeaves int
	const probes, scanLen = 200, 20
	measure := func(cacheBytes int64) (search, insert, update, scan float64, err error) {
		sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
			c.CacheBytes = cacheBytes
			c.HotspotBytes = 0 // speculation changes trip counts; measure the base protocol
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer cfg.Fabric.Close()
		cl := sys.NewClient()
		if cacheBytes > 0 {
			// Warm the cache with a full pass.
			for _, k := range cfg.LoadKeys {
				if _, err := cl.Search(k); err != nil {
					return 0, 0, 0, 0, err
				}
			}
		}
		trips := func(f func(i int) error, n int) (float64, error) {
			before := cl.DM().Stats().Trips
			for i := 0; i < n; i++ {
				if err := f(i); err != nil {
					return 0, err
				}
			}
			return float64(cl.DM().Stats().Trips-before) / float64(n), nil
		}
		keys := cfg.LoadKeys
		val := make([]byte, cfg.ValueSize)
		if search, err = trips(func(i int) error {
			_, err := cl.Search(keys[(i*37)%len(keys)])
			return err
		}, probes); err != nil {
			return
		}
		if update, err = trips(func(i int) error {
			return cl.Update(keys[(i*53)%len(keys)], val)
		}, probes); err != nil {
			return
		}
		resident := append([]uint64(nil), keys...)
		if insert, err = trips(func(i int) error {
			k := ycsb.KeyOf(uint64(len(keys) + i + int(cacheBytes%97)*1000))
			resident = append(resident, k)
			return cl.Insert(k, val)
		}, probes); err != nil {
			return
		}
		scanStart := func(i int) uint64 { return keys[(i*41)%len(keys)] }
		if scan, err = trips(func(i int) error {
			_, err := cl.Scan(scanStart(i), scanLen)
			return err
		}, probes); err != nil {
			return
		}
		if cacheBytes > 0 {
			var leafKeys []int
			if shape, leafKeys, err = census(sys); err != nil {
				return
			}
			slices.Sort(resident)
			for i := 0; i < probes; i++ {
				scanLeaves += leavesUnder(leafKeys, resident, scanStart(i), scanLen)
			}
		}
		return search, insert, update, scan, nil
	}

	bs, bi, bu, bsc, err := measure(4 << 30)
	if err != nil {
		return err
	}
	ws, wi, wu, wsc, err := measure(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %12.2f %12.2f   (paper: 1-2 / h+1-h+2)\n", "search", bs, ws)
	fmt.Fprintf(w, "%-10s %12.2f %12.2f   (paper: 3 / h+3; +1 with block alloc)\n", "insert", bi, wi)
	fmt.Fprintf(w, "%-10s %12.2f %12.2f   (paper: 3-4 / h+3-h+4)\n", "update", bu, wu)
	fmt.Fprintf(w, "%-10s %12.2f %12.2f   (paper: 1+leaves / h+1+leaves)\n", "scan", bsc, wsc)
	fmt.Fprintf(w, "(tree: %v, h = %d; the scan probes' %d keys lie in %.2f leaves)\n", shape, shape.Levels-1, scanLen, float64(scanLeaves)/probes)
	return nil
}

// leavesUnder counts the leaves that hold the first count keys >= start,
// given every resident key in order and how many each leaf of the chain
// holds: what a scan that reads no leaf in vain reads.
func leavesUnder(leafKeys []int, resident []uint64, start uint64, count int) int {
	first, _ := slices.BinarySearch(resident, start)
	last := min(first+count, len(resident)) - 1
	leaves, end := 0, 0 // end: keys in the leaves up to this one
	for _, n := range leafKeys {
		if end += n; end > first && n > 0 {
			leaves++
		}
		if end > last {
			break
		}
	}
	return leaves
}
