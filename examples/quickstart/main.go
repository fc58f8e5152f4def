// Quickstart: stand up a simulated disaggregated-memory pool, bootstrap
// a CHIME tree on it, and run point and range operations from a client.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"

	"chime/internal/core"
	"chime/internal/dmsim"
)

func main() {
	// The memory pool: one memory node with 256 MB of remote memory,
	// reachable through one-sided RDMA-style verbs with the paper's
	// testbed parameters (100 Gbps NIC, 2 us one-sided latency).
	fabric, err := dmsim.NewFabric(dmsim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer fabric.Close()

	// Bootstrap a CHIME tree: span-64 nodes, neighborhood-8 hopscotch
	// leaves, every paper technique enabled.
	tree, err := core.Bootstrap(fabric, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// A compute node holds the CN-side state the paper describes: an
	// internal-node cache (here 16 MB) and the hotspot buffer (1 MB).
	cn := tree.NewComputeNode(16<<20, 1<<20)
	client := cn.NewClient()

	// Insert some keys.
	for i := uint64(1); i <= 1000; i++ {
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, i*i)
		if err := client.Insert(i*7919, val); err != nil {
			log.Fatalf("insert: %v", err)
		}
	}

	// Point query.
	got, err := client.Search(42 * 7919)
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Printf("search(42*7919) = %d\n", binary.LittleEndian.Uint64(got))

	// Update and re-read.
	newVal := make([]byte, 8)
	binary.LittleEndian.PutUint64(newVal, 12345)
	if err := client.Update(42*7919, newVal); err != nil {
		log.Fatalf("update: %v", err)
	}
	got, _ = client.Search(42 * 7919)
	fmt.Printf("after update      = %d\n", binary.LittleEndian.Uint64(got))

	// Range scan: ten smallest keys at or above 500*7919.
	kvs, err := client.Scan(500*7919, 10)
	if err != nil {
		log.Fatalf("scan: %v", err)
	}
	fmt.Println("scan(500*7919, 10):")
	for _, kv := range kvs {
		fmt.Printf("  key=%-10d value=%d\n", kv.Key, binary.LittleEndian.Uint64(kv.Value))
	}

	// Delete.
	if err := client.Delete(43 * 7919); err != nil {
		log.Fatalf("delete: %v", err)
	}
	if _, err := client.Search(43 * 7919); errors.Is(err, core.ErrNotFound) {
		fmt.Println("delete(43*7919) confirmed: key gone")
	}

	// What did this cost on the wire? Every verb was accounted.
	st := client.DM().Stats()
	fmt.Printf("\nremote traffic: %d round trips, %.1f KB read, %.1f KB written\n",
		st.Trips, float64(st.BytesRead)/1e3, float64(st.BytesWritten)/1e3)
	cs := cn.CacheStats()
	fmt.Printf("CN cache: %d internal nodes (%.1f KB), %d hits / %d misses\n",
		cs.Nodes, float64(cs.UsedBytes)/1e3, cs.Hits, cs.Misses)
}
