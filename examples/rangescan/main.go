// rangescan: time-ordered event analytics on disaggregated memory —
// the range-query workload that motivates using a *range* index rather
// than a hash table (§2.2). Events carry composite keys
// (minute << 24 | sequence), so "all events in minutes [t, t+w)" is a
// key-range scan. The example loads an event log into both CHIME and
// Sherman on identical fabrics and compares what the same scans cost
// each index on the wire.
//
//	go run ./examples/rangescan
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"chime/internal/core"
	"chime/internal/dmsim"
	"chime/internal/sherman"
)

const (
	minutes      = 400
	eventsPerMin = 60
	scanWindow   = 5 // minutes per analytics query
	queries      = 50
)

func eventKey(minute, seq uint64) uint64 { return minute<<24 | seq }

func main() {
	// Load the same synthetic event log into both indexes.
	fmt.Printf("event log: %d minutes x %d events\n\n", minutes, eventsPerMin)

	chimeFabric := dmsim.MustNewFabric(dmsim.DefaultConfig())
	defer chimeFabric.Close()
	chimeTree, err := core.Bootstrap(chimeFabric, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	chimeCl := chimeTree.NewComputeNode(16<<20, 0).NewClient()

	shermanFabric := dmsim.MustNewFabric(dmsim.DefaultConfig())
	defer shermanFabric.Close()
	shermanTree, err := sherman.Bootstrap(shermanFabric, sherman.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	shermanCl := shermanTree.NewComputeNode(16 << 20).NewClient()

	val := make([]byte, 8)
	for m := uint64(0); m < minutes; m++ {
		for s := uint64(0); s < eventsPerMin; s++ {
			binary.LittleEndian.PutUint64(val, m*1000+s)
			k := eventKey(m, s)
			if err := chimeCl.Insert(k, val); err != nil {
				log.Fatalf("chime insert: %v", err)
			}
			if err := shermanCl.Insert(k, val); err != nil {
				log.Fatalf("sherman insert: %v", err)
			}
		}
	}

	// Warm both caches with one pass of point reads.
	for m := uint64(0); m < minutes; m += 7 {
		if _, err := chimeCl.Search(eventKey(m, 0)); err != nil {
			log.Fatal(err)
		}
		if _, err := shermanCl.Search(eventKey(m, 0)); err != nil {
			log.Fatal(err)
		}
	}

	// Analytics: "sum the last scanWindow minutes" sliding randomly.
	r := rand.New(rand.NewSource(7))
	chimeCl.DM().ResetStats()
	shermanCl.DM().ResetStats()
	chimeStart := chimeCl.DM().Now()
	shermanStart := shermanCl.DM().Now()

	var chimeSum, shermanSum uint64
	for q := 0; q < queries; q++ {
		m := uint64(r.Intn(minutes - scanWindow))
		want := scanWindow * eventsPerMin

		kvs, err := chimeCl.Scan(eventKey(m, 0), want)
		if err != nil {
			log.Fatalf("chime scan: %v", err)
		}
		for _, kv := range kvs {
			chimeSum += binary.LittleEndian.Uint64(kv.Value)
		}

		skvs, err := shermanCl.Scan(eventKey(m, 0), want)
		if err != nil {
			log.Fatalf("sherman scan: %v", err)
		}
		for _, kv := range skvs {
			shermanSum += binary.LittleEndian.Uint64(kv.Value)
		}
		if len(kvs) != len(skvs) {
			log.Fatalf("query %d: CHIME returned %d events, Sherman %d", q, len(kvs), len(skvs))
		}
	}
	if chimeSum != shermanSum {
		log.Fatalf("aggregation mismatch: %d vs %d", chimeSum, shermanSum)
	}
	fmt.Printf("%d scan queries agree on both indexes (checksum %d)\n\n", queries, chimeSum)

	report := func(name string, st dmsim.ClientStats, durNs int64) {
		perQ := float64(queries)
		fmt.Printf("%-8s %6.1f trips/query  %8.1f KB read/query  %8.1f us/query\n",
			name,
			float64(st.Trips)/perQ,
			float64(st.BytesRead)/perQ/1e3,
			float64(durNs)/perQ/1e3)
	}
	report("CHIME", chimeCl.DM().Stats(), chimeCl.DM().Now()-chimeStart)
	report("Sherman", shermanCl.DM().Stats(), shermanCl.DM().Now()-shermanStart)
	fmt.Println("\n(both are KV-contiguous: scans fetch whole leaves along the sibling chain;")
	fmt.Println(" a KV-discrete radix tree would pay one small READ per event instead — see fig12 YCSB E)")
}
