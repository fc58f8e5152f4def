package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/ycsb"
)

// Motivation experiments (§3 of the paper): the two trade-offs and the
// metadata/neighborhood micro-benchmarks.

func init() {
	register(Experiment{ID: "fig3a", Title: "Trade-off: cache consumption vs read amplification", Run: Fig3a})
	register(Experiment{ID: "fig3b", Title: "Range indexes with limited bandwidth (1 MN)", Run: Fig3b})
	register(Experiment{ID: "fig3c", Title: "Range indexes with limited caches", Run: Fig3c})
	register(Experiment{ID: "fig3d", Title: "Hashing schemes: max load factor vs amplification", Run: Fig3d})
	register(Experiment{ID: "fig4a", Title: "Vacancy bitmap access overhead", Run: Fig4a})
	register(Experiment{ID: "fig4b", Title: "Leaf metadata access overhead", Run: Fig4b})
	register(Experiment{ID: "fig4c", Title: "Neighborhood size read throughput", Run: Fig4c})
}

// Fig3a reproduces Figure 3a: the analytic trade-off between
// computing-side cache bytes per key and the read amplification factor,
// for each index design at each span size, plus the measured cache
// consumption at this run's scale.
func Fig3a(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 3a: cache consumption vs read amplification (analytic, per key)\n")
	fmt.Fprintf(w, "%-10s %8s %12s %14s\n", "index", "span", "amp-factor", "cacheB/key")
	// B+ tree (Sherman): amplification = span; cache = internal nodes
	// ≈ (pivot+pointer) per leaf / span keys per leaf.
	for _, span := range []int{8, 16, 32, 64, 128, 256, 512} {
		// One parent routing entry (pivot + pointer ≈ 17B) covers a
		// whole span-sized leaf, so cache cost amortizes to 17/span.
		fmt.Fprintf(w, "%-10s %8d %12d %14.3f\n", "B+tree", span, span, 17.0/float64(span))
	}
	// Learned index (ROLEX): amplification = 2*span (model error = span);
	// cache = model segments + fences ≈ 32B per leaf group.
	for _, span := range []int{8, 16, 32, 64} {
		fmt.Fprintf(w, "%-10s %8d %12d %14.3f\n", "learned", span, 2*span, 32.0/float64(span))
	}
	// Radix tree (SMART): amplification 1; cache ≈ a slot per key plus
	// its share of node headers (measured ~16-50B/key; see fig14).
	fmt.Fprintf(w, "%-10s %8s %12d %14s\n", "radix", "-", 1, ">=16 (per-key addresses)")
	// CHIME: amplification = neighborhood H; cache like a B+ tree.
	for _, h := range []int{2, 4, 8, 16} {
		fmt.Fprintf(w, "%-10s %8s %12d %14.3f  (span 64, H=%d)\n", "CHIME", "64", h, 17.0/64.0, h)
	}
	return nil
}

// Fig3b reproduces Figure 3b: read-only throughput under limited
// bandwidth — one MN, caches big enough for every internal node. The
// KV-contiguous indexes saturate the NIC's bandwidth early; SMART (and
// CHIME) push much further.
func Fig3b(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 3b: YCSB C, 1 MN (limited bandwidth), ample caches\n")
	var rows []Result
	for _, name := range HeadToHeadSystems {
		sys, cfg, err := buildSystem(name, sc, 1, func(c *SystemConfig) {
			c.CacheBytes = 1 << 30 // ample: cache everything
			c.HotspotBytes = hotspotBudgetFor(sc)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, clients := range sc.ClientSweep {
			r, err := runPoint(sys, cfg, ycsb.WorkloadC, clients, sc.Ops, 1)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rows = append(rows, r)
		}
		cfg.Fabric.Close()
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig3c reproduces Figure 3c: read-only throughput under limited caches
// — several MNs (ample bandwidth), small per-CN caches. SMART's
// internal nodes no longer fit, so its remote traversals dominate.
func Fig3c(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 3c: YCSB C, 4 MNs (ample bandwidth), limited caches\n")
	// The paper's limited-cache point is 100 MB for 60M keys = ~1.7
	// bytes per key: plenty for the KV-contiguous indexes' internal
	// nodes, a 25x shortfall for SMART's per-key addresses. Apply the
	// same per-key budget (no floor) at this run's scale.
	limited := int64(sc.LoadN) * 100 << 20 / 60_000_000
	var rows []Result
	for _, name := range HeadToHeadSystems {
		sys, cfg, err := buildSystem(name, sc, 4, func(c *SystemConfig) {
			c.CacheBytes = limited
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, clients := range sc.ClientSweep {
			r, err := runPoint(sys, cfg, ycsb.WorkloadC, clients, sc.Ops, 2)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rows = append(rows, r)
		}
		cfg.Fabric.Close()
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig3d reproduces Figure 3d: maximum load factor vs read amplification
// for the DM hashing schemes, on 128-entry tables.
func Fig3d(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 3d: hashing schemes, 128-entry tables, %d trials\n", sc.Trials)
	fmt.Fprintf(w, "%-14s %10s %14s\n", "scheme", "amp", "max-load")
	for _, r := range hopscotch.Figure3d(128, sc.Trials, 42) {
		fmt.Fprintf(w, "%-14s %10d %14.3f\n", r.Name, r.ReadAmp, r.MaxLoadFactor)
	}
	return nil
}

// Fig4a reproduces Figure 4a: the cost of reading the vacancy bitmap
// with a dedicated access vs piggybacked on the lock (insert-heavy
// workload on CHIME with the piggyback ablation toggled).
func Fig4a(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 4a: vacancy bitmap access (inserts; piggyback on/off)\n")
	var rows []Result
	for _, variant := range []struct {
		label   string
		disable bool
	}{{"piggybacked", false}, {"dedicated-access", true}} {
		r, err := measured("CHIME/"+variant.label, "CHIME", sc, func(c *SystemConfig) {
			c.DisablePiggyback = variant.disable
		}, ycsb.WorkloadLoad, 3)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig4b reproduces Figure 4b: the cost of a dedicated leaf-metadata READ
// vs replicated metadata (read-only workload with the replication
// ablation toggled).
func Fig4b(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 4b: leaf metadata access (reads; replication on/off)\n")
	var rows []Result
	for _, variant := range []struct {
		label   string
		disable bool
	}{{"replicated", false}, {"dedicated-access", true}} {
		r, err := measured("CHIME/"+variant.label, "CHIME", sc, func(c *SystemConfig) {
			c.DisableReplication = variant.disable
		}, ycsb.WorkloadC, 4)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}

// Fig4c reproduces Figure 4c: raw READ throughput against one MN as the
// neighborhood (block) size grows — 1-entry reads are IOPS-bound, large
// neighborhoods bandwidth-bound, so 8-entry reads cannot be 8x slower
// than 1-entry reads (§3.2.3).
func Fig4c(w io.Writer, sc Scale) error {
	const entryBytes = 19 // 8B key + 8B value + flags/bitmap
	fmt.Fprintf(w, "# Figure 4c: continuous READs of H-entry neighborhoods, 1 MN, %d clients\n", sc.Clients)
	fmt.Fprintf(w, "%-6s %10s %12s %12s\n", "H", "bytes", "Mops", "GB/s")
	for _, h := range []int{1, 2, 4, 8, 16} {
		block := h * entryBytes
		f := DefaultFabric(1, sc.MNSize)
		opsPer := sc.Ops / sc.Clients * 4
		if opsPer < 500 {
			opsPer = 500
		}
		var wg sync.WaitGroup
		durs := make([]int64, sc.Clients)
		// Carve the readable region out of MN 0's allocator once, up
		// front: the timed loop then derives every address from this
		// base via GAddr.Add instead of raw GAddr literals, keeping all
		// address construction on the sanctioned verb-gate paths.
		span := sc.MNSize - block - 64
		setup := f.NewClient()
		region, err := setup.AllocRPC(0, span+block)
		if err != nil {
			f.Close()
			return err
		}
		// The cohort shares one virtual epoch and its verbs meet the NIC in
		// clock order, so the IOPS/bandwidth ceilings bind exactly as
		// configured.
		cls := make([]*dmsim.Client, sc.Clients)
		for ci := range cls {
			cls[ci] = f.NewClient()
			cls[ci].JoinCohort()
		}
		for ci := 0; ci < sc.Clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				cl := cls[ci]
				defer cl.LeaveCohort()
				r := rand.New(rand.NewSource(int64(ci)))
				buf := make([]byte, block)
				start := cl.Now()
				for i := 0; i < opsPer; i++ {
					addr := region.Add(uint64(r.Intn(span)))
					if err := cl.Read(addr, buf); err != nil {
						return
					}
				}
				durs[ci] = cl.Now() - start
			}(ci)
		}
		wg.Wait()
		f.Close()
		var maxDur int64 = 1
		for _, d := range durs {
			if d > maxDur {
				maxDur = d
			}
		}
		ops := float64(sc.Clients * opsPer)
		mops := ops * 1e3 / float64(maxDur)
		fmt.Fprintf(w, "%-6d %10d %12.3f %12.3f\n", h, block, mops, mops*float64(block)/1e3)
	}
	return nil
}
