// docstore: a small document store with string keys on disaggregated
// memory, exercising CHIME's variable-length key support (§4.5): leaf
// entries hold an 8-byte prefix fingerprint, full keys and values live
// in remote blocks, and fingerprint collisions chain.
//
//	go run ./examples/docstore
package main

import (
	"fmt"
	"log"
	"sort"

	"chime/internal/core"
	"chime/internal/dmsim"
)

func main() {
	fabric := dmsim.MustNewFabric(dmsim.DefaultConfig())
	defer fabric.Close()
	opts := core.DefaultOptions()
	opts.VarKeys = true
	tree, err := core.Bootstrap(fabric, opts)
	if err != nil {
		log.Fatal(err)
	}
	client := tree.NewComputeNode(16<<20, 0).NewClient()

	docs := map[string]string{
		"users/alice/profile":    `{"name":"Alice","role":"engineer"}`,
		"users/alice/settings":   `{"theme":"dark"}`,
		"users/bob/profile":      `{"name":"Bob","role":"analyst"}`,
		"orders/2026-07-01/0001": `{"item":"widget","qty":3}`,
		"orders/2026-07-02/0001": `{"item":"gadget","qty":1}`,
		"orders/2026-07-04/0007": `{"item":"sprocket","qty":12}`,
	}
	// Insert in sorted key order: map range order would make the
	// fabric's allocation sequence (and any persistence log) differ
	// run to run.
	keys := make([]string, 0, len(docs))
	for k := range docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := client.InsertKV([]byte(k), []byte(docs[k])); err != nil {
			log.Fatalf("insert %q: %v", k, err)
		}
	}

	// Point lookup by full string key.
	v, err := client.SearchKV([]byte("users/alice/profile"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("users/alice/profile -> %s\n", v)

	// Prefix-range scan: every order (keys starting "orders/").
	fmt.Println("\nall orders:")
	kvs, err := client.ScanKV([]byte("orders/"), 100)
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range kvs {
		if len(kv.Key) < 7 || string(kv.Key[:7]) != "orders/" {
			break // past the prefix
		}
		fmt.Printf("  %-24s %s\n", kv.Key, kv.Value)
	}

	// Update a document in place.
	if err := client.UpdateKV([]byte("users/bob/profile"), []byte(`{"name":"Bob","role":"manager"}`)); err != nil {
		log.Fatal(err)
	}
	v, _ = client.SearchKV([]byte("users/bob/profile"))
	fmt.Printf("\nafter promotion: %s\n", v)

	// These two keys share their first 8 bytes ("users/al"): their
	// blocks chain behind one fingerprint, and both stay addressable.
	fp1 := core.FingerprintOf([]byte("users/alice/profile"))
	fp2 := core.FingerprintOf([]byte("users/alice/settings"))
	fmt.Printf("\nfingerprint collision: %#x == %#x -> chained blocks\n", fp1, fp2)

	if err := client.DeleteKV([]byte("users/alice/settings")); err != nil {
		log.Fatal(err)
	}
	if _, err := client.SearchKV([]byte("users/alice/profile")); err != nil {
		log.Fatalf("chain rebuild lost a sibling: %v", err)
	}
	fmt.Println("deleted users/alice/settings; users/alice/profile survives the chain rebuild")
}
