// kvstore: a shared key-value store on disaggregated memory — the
// paper's motivating deployment (§2.2). Two compute nodes, each with
// its own cache and hotspot buffer, drive a Zipfian read-mostly
// workload against one CHIME tree in the memory pool, concurrently with
// a writer stream. The example prints per-CN throughput, latency, cache
// behaviour and speculative-read statistics.
//
//	go run ./examples/kvstore
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"chime/internal/core"
	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

const (
	loadItems    = 50000
	clientsPerCN = 8
	opsPerClient = 2000
	hotFraction  = 0.95 // YCSB B: 95% reads, 5% updates
)

func main() {
	cfg := dmsim.DefaultConfig()
	cfg.MNs = 2
	cfg.MNSize = 512 << 20
	fabric := dmsim.MustNewFabric(cfg)
	defer fabric.Close()

	tree, err := core.Bootstrap(fabric, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Two compute nodes sharing the same remote tree, as in the shared
	// indexing scenario: each CN has 8 MB of node cache and a 2 MB
	// hotspot buffer.
	cns := []*core.ComputeNode{
		tree.NewComputeNode(8<<20, 2<<20),
		tree.NewComputeNode(8<<20, 2<<20),
	}

	// Bulk load through CN 0.
	fmt.Printf("loading %d items...\n", loadItems)
	loader := cns[0].NewClient()
	for i := uint64(0); i < loadItems; i++ {
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, i)
		if err := loader.Insert(ycsb.KeyOf(i), val); err != nil {
			log.Fatalf("load: %v", err)
		}
	}

	// Measured phase: every client on both CNs runs YCSB B with Zipfian
	// skew. Clients are created up front and join the fabric's cohort
	// so the virtual-time throughput is meaningful.
	type out struct {
		ops   int
		durNs int64
	}
	clients := make([]*core.Client, 0, 2*clientsPerCN)
	owners := make([]int, 0, 2*clientsPerCN)
	for cnIdx, cn := range cns {
		for i := 0; i < clientsPerCN; i++ {
			cl := cn.NewClient()
			cl.DM().JoinCohort()
			clients = append(clients, cl)
			owners = append(owners, cnIdx)
		}
	}
	outs := make([]out, len(clients))
	var wg sync.WaitGroup
	for idx, cl := range clients {
		wg.Add(1)
		go func(idx int, cl *core.Client) {
			defer wg.Done()
			defer cl.DM().LeaveCohort()
			cl.DM().Sync() // run in the cohort scheduler's order from the first op
			r := rand.New(rand.NewSource(int64(idx)))
			zip := ycsb.NewZipfian(loadItems, 0.99)
			start := cl.DM().Now()
			val := make([]byte, 8)
			for i := 0; i < opsPerClient; i++ {
				key := ycsb.KeyOf(zip.Next(r.Float64()))
				if r.Float64() < hotFraction {
					if _, err := cl.Search(key); err != nil && !errors.Is(err, core.ErrNotFound) {
						log.Fatalf("search: %v", err)
					}
				} else {
					binary.LittleEndian.PutUint64(val, uint64(i))
					if err := cl.Update(key, val); err != nil && !errors.Is(err, core.ErrNotFound) {
						log.Fatalf("update: %v", err)
					}
				}
			}
			outs[idx] = out{ops: opsPerClient, durNs: cl.DM().Now() - start}
		}(idx, cl)
	}
	wg.Wait()

	// Report per CN.
	for cnIdx, cn := range cns {
		var ops int
		var maxDur int64
		for i := range clients {
			if owners[i] != cnIdx {
				continue
			}
			ops += outs[i].ops
			if outs[i].durNs > maxDur {
				maxDur = outs[i].durNs
			}
		}
		cs := cn.CacheStats()
		hs := cn.HotspotStats()
		hitRatio := float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		fmt.Printf("\nCN%d: %.2f Mops (%d ops / %.1f ms virtual)\n",
			cnIdx, float64(ops)*1e3/float64(maxDur), ops, float64(maxDur)/1e6)
		fmt.Printf("  node cache: %d nodes, %.1f KB, hit ratio %.1f%%\n",
			cs.Nodes, float64(cs.UsedBytes)/1e3, hitRatio*100)
		if hs.Lookups > 0 {
			fmt.Printf("  hotspot buffer: %d entries, %.1f%% lookup hits, %.1f%% speculations correct\n",
				hs.Entries,
				100*float64(hs.Hits)/float64(hs.Lookups),
				100*float64(hs.Correct)/float64(max64(hs.Speculations, 1)))
		}
	}
	ns := fabric.TotalNICStats()
	fmt.Printf("\nfabric totals: %d verbs, %.1f MB out of the pool, %.1f MB in\n",
		ns.Verbs, float64(ns.BytesOut)/1e6, float64(ns.BytesIn)/1e6)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
