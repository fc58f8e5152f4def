package bench

import (
	"fmt"
	"io"
	"math"

	"chime/internal/core"
	"chime/internal/ycsb"
)

// Experiments for the quantitative claims in the paper's §4.5
// "Discussions": update write amplification, remote memory overhead,
// and tree height across dataset sizes.

func init() {
	register(Experiment{ID: "disc-wamp", Title: "§4.5 write amplification of updates", Run: DiscWriteAmp})
	register(Experiment{ID: "disc-mem", Title: "§4.5 remote memory consumption breakdown", Run: DiscMemory})
	register(Experiment{ID: "disc-height", Title: "§4.5 tree height vs dataset size", Run: DiscHeight})
}

// DiscWriteAmp measures bytes written per update against the KV size.
// The paper's claim: with 256-byte KV items the version overhead is
// 1 + KV/63 + 1 ≈ 5.1 bytes, a 1.02x write amplification.
func DiscWriteAmp(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# §4.5: update write amplification vs KV size\n")
	fmt.Fprintf(w, "%-8s %10s %12s %14s %12s\n", "valB", "kvB", "wrB/op", "amplification", "paper-model")
	for _, vs := range []int{8, 56, 120, 248} { // kv = key(8) + value
		kv := 8 + vs
		subScale := sc
		subScale.LoadN = sc.LoadN / 4
		subScale.Ops = sc.Ops / 4
		sys, cfg, err := buildSystem("CHIME", subScale, 1, func(c *SystemConfig) {
			c.ValueSize = vs
			c.DisableRDWC = true // measure the raw protocol, not combining
		})
		if err != nil {
			return err
		}
		mix := ycsb.Mix{Name: "U", UpdatePct: 1.0, Dist: ycsb.DistUniform}
		r, err := runPoint(sys, cfg, mix, sc.Clients, subScale.Ops, 45)
		cfg.Fabric.Close()
		if err != nil {
			return err
		}
		// An update writes the full entry cell (KV + versions + bitmap,
		// line-padded for large items) plus the lock CAS and the
		// combined unlock word. The paper's 1.02x counts only the
		// version bytes over the data; the model column applies the
		// same accounting.
		model := 1.0 + float64(kv)/63.0 // version bytes (paper's accounting)
		fmt.Fprintf(w, "%-8d %10d %12.1f %14.3fx %11.3fx\n",
			vs, kv, r.WriteBytes, r.WriteBytes/float64(kv),
			(float64(kv)+model)/float64(kv))
	}
	fmt.Fprintf(w, "(measured includes the 16B of lock CAS + unlock and, for items above 63B,\n")
	fmt.Fprintf(w, " the cache-line padding of this implementation's big-cell layout; the paper's\n")
	fmt.Fprintf(w, " 1.02x claim counts version bytes only — the model column.)\n")
	return nil
}

// DiscMemory reports the remote-memory overhead breakdown of CHIME's
// leaf layout: hopscotch bitmaps, cache-line versions, metadata
// replicas, and the load-factor slack (§4.5 reports 8.3B metadata per
// 256B item ≈ 3%, and a ~1.1x load-factor overhead at H=8).
func DiscMemory(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# §4.5: remote memory consumption per stored item\n")
	fmt.Fprintf(w, "%-8s %10s %12s %12s %12s\n", "valB", "kvB", "leafB/slot", "metaB/slot", "meta%%")
	for _, vs := range []int{8, 248} {
		opts := core.DefaultOptions()
		opts.ValueSize = vs
		f := DefaultFabric(1, 64<<20)
		ix, err := core.Bootstrap(f, opts)
		if err != nil {
			f.Close()
			return err
		}
		kv := 8 + vs
		perSlot := float64(ix.LeafNodeSize()-64) / 64.0 // lock line excluded, span 64
		f.Close()
		meta := perSlot - float64(kv)
		fmt.Fprintf(w, "%-8d %10d %12.1f %12.1f %11.1f%%\n",
			vs, kv, perSlot, meta, 100*meta/float64(kv))
	}
	fmt.Fprintf(w, "\n(at the default 8B values the overhead is ~8B/slot, matching the paper's\n")
	fmt.Fprintf(w, " 8.3B estimate; large inline items additionally pay this implementation's\n")
	fmt.Fprintf(w, " cache-line padding for multi-line entry cells.)\n")
	fmt.Fprintf(w, "\nload-factor slack: a span-64/H-8 leaf sustains ~88%% occupancy before\n")
	fmt.Fprintf(w, "splitting (fig19a), so slot storage costs ~1.1x the resident data,\n")
	fmt.Fprintf(w, "matching the paper's estimate; H=16 reaches ~99.8%% (fig19b).\n")
	return nil
}

// DiscHeight reproduces the §4.5 tree-height claim: with a span of 64
// and a high leaf load factor, the height stays at or below 5 out to a
// billion keys. Measured at this run's scale, extrapolated analytically.
func DiscHeight(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# §4.5: tree height = ceil(log_span(n / loadFactor))\n")
	fmt.Fprintf(w, "%-14s %10s %10s\n", "items", "height@88%", "height@99.8%")
	for _, n := range []float64{1e5, 1e6, 1e7, 1e8, 1e9} {
		h1 := math.Ceil(math.Log(n/0.881/64) / math.Log(64)) // internal levels over span-64 leaves
		h2 := math.Ceil(math.Log(n/0.998/64) / math.Log(64))
		fmt.Fprintf(w, "%-14.0f %10.0f %10.0f\n", n, h1+1, h2+1)
	}

	// Measured: count remote traversal depth at this scale with a cold
	// cache — trips per search on an unwarmed client ≈ height + 1.
	subScale := sc
	subScale.LoadN = sc.LoadN / 2
	sys, cfg, err := buildSystem("CHIME", subScale, 1, func(c *SystemConfig) {
		c.CacheBytes = 0 // no cache: every level is a remote READ
		c.HotspotBytes = 0
		c.DisableRDWC = true
	})
	if err != nil {
		return err
	}
	defer cfg.Fabric.Close()
	cl := sys.NewClient()
	before := cl.DM().Stats().Trips
	const probes = 200
	for i := 0; i < probes; i++ {
		if _, err := cl.Search(cfg.LoadKeys[(i*37)%len(cfg.LoadKeys)]); err != nil {
			return err
		}
	}
	perOp := float64(cl.DM().Stats().Trips-before) / probes
	fmt.Fprintf(w, "\nmeasured: %.2f trips per uncached search at %d keys (= height+1, +1 super-block)\n",
		perOp, subScale.LoadN)
	return nil
}
