package offroute

import (
	"bytes"
	"testing"
)

// TestScanBufResetReusesStorage: a buffer handed from one scan to the next
// gives the new scan the old one's storage — nothing is allocated once it
// has grown to the scans' size — and nothing of the old one's results: the
// values are the new ones, each capped at its own length.
func TestScanBufResetReusesStorage(t *testing.T) {
	var b ScanBuf
	fill := func(n int, tag byte) {
		b.Reset(n, 8)
		for i := 0; i < n; i++ {
			b.Add(uint64(i), bytes.Repeat([]byte{tag + byte(i)}, 8))
		}
	}
	fill(100, 1)
	fill(40, 7)
	if len(b.Out) != 40 {
		t.Fatalf("%d results after a 40-key scan into a used buffer", len(b.Out))
	}
	for i, kv := range b.Out {
		if want := bytes.Repeat([]byte{7 + byte(i)}, 8); kv.Key != uint64(i) || !bytes.Equal(kv.Value, want) || cap(kv.Value) != 8 {
			t.Fatalf("result %d = key %d value %x (cap %d), want key %d value %x (cap 8)", i, kv.Key, kv.Value, cap(kv.Value), i, want)
		}
	}
	val := make([]byte, 8)
	if avg := testing.AllocsPerRun(100, func() {
		b.Reset(100, 8)
		for i := 0; i < 100; i++ {
			b.Add(uint64(i), val)
		}
	}); avg != 0 {
		t.Fatalf("a scan into a grown buffer allocates %.1f objects, want 0", avg)
	}
}
