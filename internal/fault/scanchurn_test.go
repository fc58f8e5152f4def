package fault_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"chime/internal/core"
	"chime/internal/dmsim"
	"chime/internal/offroute"
	"chime/internal/sherman"
)

// Scan model under churn: one compute node scans random (start, count)
// ranges while a second one — its own node cache, its own goroutine —
// inserts bands of keys between the stable ones until leaves split and
// deletes them again until leaves empty and merge, all inside the scanned
// range. The scanner's cached parents go stale under it, so its window of
// leaf reads (offroute.ScanWindow) keeps reading ahead into leaves that
// are no longer the chain's next. Whatever it reads, every scan must
// return keys strictly ascending (sorted, no duplicate), none below start,
// each with its own value, and every stable key — present for the whole
// scan — that lies in the range the scan covered.

const (
	churnStable = 500 // stable keys: 16, 32, …
	churnStep   = 16
	churnBand   = 40 // stable keys whose gaps one writer round fills and empties
	churnRounds = 12 // writer rounds; the scanner scans until they are done
)

// churnClient is what the model needs of an index client; core's and
// Sherman's are it as they stand.
type churnClient interface {
	Insert(key uint64, value []byte) error
	Delete(key uint64) error
	Scan(start uint64, count int) ([]offroute.KV, error)
}

func churnValue(key uint64) []byte {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, key*0x9E3779B97F4A7C15)
	return v
}

// churnTrees builds each tree index on a fresh fabric and returns a
// constructor of clients, every one on a compute node of its own.
var churnTrees = []struct {
	name string
	make func(indirect bool, cacheBytes int64) (func() churnClient, error)
}{
	{"CHIME", func(indirect bool, cacheBytes int64) (func() churnClient, error) {
		opts := core.DefaultOptions()
		opts.Indirect = indirect
		opts.SpanSize, opts.Neighborhood = 16, 4 // small leaves: a band splits and merges many
		ix, err := core.Bootstrap(churnFabric(), opts)
		if err != nil {
			return nil, err
		}
		return func() churnClient { return ix.NewComputeNode(cacheBytes, 0).NewClient() }, nil
	}},
	{"Sherman", func(indirect bool, cacheBytes int64) (func() churnClient, error) {
		opts := sherman.DefaultOptions()
		opts.Indirect = indirect
		opts.SpanSize = 16
		ix, err := sherman.Bootstrap(churnFabric(), opts)
		if err != nil {
			return nil, err
		}
		return func() churnClient { return ix.NewComputeNode(cacheBytes).NewClient() }, nil
	}},
}

func churnFabric() *dmsim.Fabric {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 128 << 20
	return dmsim.MustNewFabric(cfg)
}

func TestScanUnderChurn(t *testing.T) {
	for _, tree := range churnTrees {
		for _, indirect := range []bool{false, true} {
			for _, cacheBytes := range []int64{16 << 20, 0} {
				name := fmt.Sprintf("%s/indirect_%v/cache_%v", tree.name, indirect, cacheBytes > 0)
				t.Run(name, func(t *testing.T) {
					newClient, err := tree.make(indirect, cacheBytes)
					if err != nil {
						t.Fatal(err)
					}
					runScanChurn(t, newClient)
				})
			}
		}
	}
}

func runScanChurn(t *testing.T, newClient func() churnClient) {
	loader := newClient()
	stable := make([]uint64, churnStable)
	for i := range stable {
		stable[i] = uint64(i+1) * churnStep
		if err := loader.Insert(stable[i], churnValue(stable[i])); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var done atomic.Bool
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		w := newClient()
		rng := rand.New(rand.NewSource(2))
		for round := 0; round < churnRounds; round++ {
			lo := rng.Intn(churnStable - churnBand)
			band := stable[lo : lo+churnBand]
			for j := uint64(1); j < churnStep; j++ {
				for _, k := range band {
					if err := w.Insert(k+j, churnValue(k+j)); err != nil {
						writerErr = fmt.Errorf("writer: Insert(%d): %w", k+j, err)
						return
					}
				}
			}
			for j := uint64(1); j < churnStep; j++ {
				for _, k := range band {
					if err := w.Delete(k + j); err != nil {
						writerErr = fmt.Errorf("writer: Delete(%d): %w", k+j, err)
						return
					}
				}
			}
		}
	}()

	sc := newClient()
	rng := rand.New(rand.NewSource(1))
	scans := 0
	for ; !done.Load() && !t.Failed(); scans++ {
		start := uint64(rng.Intn((churnStable + 2) * churnStep))
		count := 1 + rng.Intn(12*churnStep)
		kvs, err := sc.Scan(start, count)
		if err != nil {
			t.Errorf("Scan(%d, %d): %v", start, count, err)
			break
		}
		checkChurnScan(t, stable, start, count, kvs)
	}
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	t.Logf("%d scans over %d writer rounds", scans, churnRounds)

	// Quiescent: the tree holds the stable keys and nothing else.
	kvs, err := sc.Scan(0, 2*churnStable)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != churnStable {
		t.Fatalf("after the churn a full scan returns %d keys, want the %d stable ones", len(kvs), churnStable)
	}
	checkChurnScan(t, stable, 0, 2*churnStable, kvs)
}

// checkChurnScan holds one scan result to the model.
func checkChurnScan(t *testing.T, stable []uint64, start uint64, count int, kvs []offroute.KV) {
	t.Helper()
	if len(kvs) > count {
		t.Errorf("Scan(%d, %d) returned %d entries", start, count, len(kvs))
	}
	for i, kv := range kvs {
		switch {
		case kv.Key < start:
			t.Errorf("Scan(%d, %d): result %d is key %d, below start", start, count, i, kv.Key)
		case i > 0 && kv.Key <= kvs[i-1].Key:
			t.Errorf("Scan(%d, %d): result %d is key %d after key %d: not strictly ascending", start, count, i, kv.Key, kvs[i-1].Key)
		case string(kv.Value) != string(churnValue(kv.Key)):
			t.Errorf("Scan(%d, %d): key %d carries value %x, want %x", start, count, kv.Key, kv.Value, churnValue(kv.Key))
		}
	}
	// The range the scan covered: up to its last key when it filled its
	// count, to the end of the tree when it ran out of chain.
	end := ^uint64(0)
	if len(kvs) >= count {
		end = kvs[len(kvs)-1].Key
	}
	got := map[uint64]bool{}
	for _, kv := range kvs {
		got[kv.Key] = true
	}
	first := sort.Search(len(stable), func(i int) bool { return stable[i] >= start })
	for _, k := range stable[first:] {
		if k > end {
			break
		}
		if !got[k] {
			t.Errorf("Scan(%d, %d) covered [%d, %d] and missed stable key %d", start, count, start, end, k)
		}
	}
}
