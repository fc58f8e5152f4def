package bench

import (
	"fmt"
	"io"

	"chime/internal/hopscotch"
	"chime/internal/ycsb"
)

// Sensitivity experiments (§5.4): workload skewness, cache size, value
// size, span size, neighborhood size, hotspot buffer size.

func init() {
	register(Experiment{ID: "fig18a", Title: "Workload skewness sweep", Run: Fig18a})
	register(Experiment{ID: "fig18b", Title: "Cache size sweep", Run: Fig18b})
	register(Experiment{ID: "fig18c", Title: "Inline value size sweep", Run: Fig18c})
	register(Experiment{ID: "fig18d", Title: "Indirect value size sweep", Run: Fig18d})
	register(Experiment{ID: "fig18e", Title: "Span size sweep", Run: Fig18e})
	register(Experiment{ID: "fig18f", Title: "Neighborhood size sweep", Run: Fig18f})
	register(Experiment{ID: "fig19a", Title: "Span size vs cache and load factor", Run: Fig19a})
	register(Experiment{ID: "fig19b", Title: "Neighborhood size vs max load factor", Run: Fig19b})
	register(Experiment{ID: "fig19c", Title: "Hotspot buffer size sweep", Run: Fig19c})
}

// Fig18a reproduces Figure 18a: a 50/50 search+update workload with
// Zipfian skewness from 0.5 to 0.99 across all four indexes.
func Fig18a(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 18a: skewness sweep (50%% search / 50%% update)\n")
	var rows []Result
	for _, name := range HeadToHeadSystems {
		sys, cfg, err := buildSystem(name, sc, 1, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, theta := range []float64{0.5, 0.8, 0.9, 0.99} {
			mix := ycsb.Mix{Name: fmt.Sprintf("z%.2f", theta), ReadPct: 0.5, UpdatePct: 0.5, Dist: ycsb.DistZipfian, Theta: theta}
			r, err := runPoint(sys, cfg, mix, sc.Clients, sc.Ops, 18)
			if err != nil {
				return fmt.Errorf("%s theta=%.2f: %w", name, theta, err)
			}
			rows = append(rows, r)
		}
		cfg.Fabric.Close()
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig18b reproduces Figure 18b: YCSB C throughput as the per-CN cache
// budget grows. The KV-contiguous indexes peak with small caches; SMART
// needs far more before its remote traversals disappear.
func Fig18b(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 18b: cache size sweep, YCSB C\n")
	base := cacheBudgetFor(sc)
	var rows []Result
	for _, name := range HeadToHeadSystems {
		for _, mult := range []int64{0, 1, 4, 16, 64} {
			budget := base * mult / 4
			r, err := measured(fmt.Sprintf("%s/%dKB", name, budget>>10), name, sc, func(c *SystemConfig) {
				c.CacheBytes = budget
			}, ycsb.WorkloadC, 19)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// valueSizeSweep runs YCSB C over growing value sizes.
func valueSizeSweep(w io.Writer, sc Scale, indirect bool, seed int64) error {
	var rows []Result
	for _, name := range HeadToHeadSystems {
		for _, vs := range []int{8, 64, 128, 256} {
			r, err := measured(fmt.Sprintf("%s/%dB", name, vs), name, sc, func(c *SystemConfig) {
				c.ValueSize = vs
				c.Indirect = indirect && name != "SMART"
			}, ycsb.WorkloadC, seed)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig18c reproduces Figure 18c: inline value size sweep. KV-contiguous
// indexes degrade steeply (leaf/neighborhood bytes grow with the
// value); SMART barely moves.
func Fig18c(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 18c: inline value size sweep, YCSB C\n")
	return valueSizeSweep(w, sc, false, 20)
}

// Fig18d reproduces Figure 18d: the same sweep with indirect values —
// leaf traffic no longer grows with the value, flattening the decline.
func Fig18d(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 18d: indirect value size sweep, YCSB C\n")
	return valueSizeSweep(w, sc, true, 21)
}

// Fig18e reproduces Figure 18e: span size sweep. Sherman's and ROLEX's
// read amplification grows with the span; CHIME only reads
// neighborhoods, so it is nearly flat (with a small penalty at tiny
// spans from wrap-around reads).
func Fig18e(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 18e: span size sweep, YCSB C\n")
	var rows []Result
	for _, name := range []string{"CHIME", "Sherman", "ROLEX"} {
		for _, span := range []int{8, 16, 64, 128, 256} {
			r, err := measured(fmt.Sprintf("%s/s%d", name, span), name, sc, func(c *SystemConfig) {
				c.SpanSize = span
			}, ycsb.WorkloadC, 22)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig18f reproduces Figure 18f: CHIME's neighborhood size sweep. Larger
// H costs moderate extra read bandwidth but raises the leaf load
// factor (Figure 19b).
func Fig18f(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 18f: neighborhood size sweep, YCSB C (CHIME)\n")
	var rows []Result
	for _, h := range []int{2, 4, 8, 16} {
		r, err := measured(fmt.Sprintf("CHIME/H%d", h), "CHIME", sc, func(c *SystemConfig) {
			c.Neighborhood = h
		}, ycsb.WorkloadC, 23)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig19a reproduces Figure 19a: span size vs cache consumption (one
// parent entry amortized over span keys) and vs the hopscotch leaf's
// maximum load factor at H=8.
func Fig19a(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 19a: span size vs cache consumption and max load factor (H=8)\n")
	fmt.Fprintf(w, "%-8s %16s %14s\n", "span", "cacheB/key", "max-load")
	for _, span := range []int{16, 32, 64, 128, 256, 512} {
		lf := hopscotch.MaxLoadFactorHopscotch(span, 8, sc.Trials, 7)
		fmt.Fprintf(w, "%-8d %16.3f %14.3f\n", span, 17.0/float64(span), lf)
	}
	return nil
}

// Fig19b reproduces Figure 19b: neighborhood size vs maximum load
// factor on a span-64 leaf.
func Fig19b(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 19b: neighborhood size vs max load factor (span 64)\n")
	fmt.Fprintf(w, "%-8s %14s\n", "H", "max-load")
	for _, h := range []int{2, 4, 8, 16} {
		lf := hopscotch.MaxLoadFactorHopscotch(64, h, sc.Trials, 8)
		fmt.Fprintf(w, "%-8d %14.3f\n", h, lf)
	}
	return nil
}

// Fig19c reproduces Figure 19c: hotspot buffer size vs throughput and
// hit ratio under skewed YCSB C.
func Fig19c(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 19c: hotspot buffer size sweep, YCSB C\n")
	fmt.Fprintf(w, "%-12s %10s %12s %12s %14s\n", "bufferKB", "Mops", "p50(us)", "hit-ratio", "spec-correct")
	base := hotspotBudgetFor(sc)
	for _, mult := range []int64{0, 1, 2, 4} {
		budget := base * mult / 2
		sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
			c.HotspotBytes = budget
			if budget == 0 {
				c.DisableSpeculation = true
			}
		})
		if err != nil {
			return err
		}
		r, err := runPoint(sys, cfg, ycsb.WorkloadC, sc.Clients, sc.Ops, 24)
		cfg.Fabric.Close()
		if err != nil {
			return err
		}
		hs := sys.(*chimeSystem).cn.HotspotStats()
		hit, correct := 0.0, 0.0
		if hs.Lookups > 0 {
			hit = float64(hs.Hits) / float64(hs.Lookups)
		}
		if hs.Speculations > 0 {
			correct = float64(hs.Correct) / float64(hs.Speculations)
		}
		fmt.Fprintf(w, "%-12d %10.3f %12.1f %12.3f %14.3f\n",
			budget>>10, r.ThroughputMops, r.P50Us, hit, correct)
	}
	return nil
}
