package offroute

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
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

// TestSortSlotsMatchesSortFunc: on unique keys (what a node holds) the
// hand-rolled sort returns exactly what slices.SortFunc did, whatever
// the length and the order the slots arrive in; with repeated keys the
// key order still agrees. It allocates nothing.
func TestSortSlotsMatchesSortFunc(t *testing.T) {
	byKey := func(a, b ScanSlot) int { return cmp.Compare(a.Key, b.Key) }
	rng := rand.New(rand.NewSource(24))
	arrange := map[string]func([]ScanSlot){
		"shuffled":  func(s []ScanSlot) { rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] }) },
		"ascending": func(s []ScanSlot) { slices.SortFunc(s, byKey) },
		"descending": func(s []ScanSlot) {
			slices.SortFunc(s, byKey)
			slices.Reverse(s)
		},
		"two runs": func(s []ScanSlot) { // a synonym leaf appended to its leaf
			slices.SortFunc(s[:len(s)/2], byKey)
			slices.SortFunc(s[len(s)/2:], byKey)
		},
	}
	for n := 0; n <= 300; n++ {
		for how, arr := range arrange {
			for _, modulus := range []uint64{0, 7} { // 0: unique keys
				got := make([]ScanSlot, n)
				for i, k := range rng.Perm(n) {
					key := uint64(k)*0x9E3779B97F4A7C15 + 1
					if modulus != 0 {
						key %= modulus
					}
					got[i] = ScanSlot{Key: key, Idx: i}
				}
				arr(got)
				want := slices.Clone(got)
				slices.SortFunc(want, byKey)
				SortSlots(got)
				if modulus == 0 && !slices.Equal(got, want) {
					t.Fatalf("%d %s unique keys: got %v, want %v", n, how, got, want)
				}
				if !slices.EqualFunc(got, want, func(a, b ScanSlot) bool { return a.Key == b.Key }) {
					t.Fatalf("%d %s keys mod %d: key order %v, want %v", n, how, modulus, got, want)
				}
			}
		}
	}
	slots := make([]ScanSlot, 256)
	if avg := testing.AllocsPerRun(50, func() {
		for i := range slots {
			slots[i] = ScanSlot{Key: uint64(i) * 0x9E3779B97F4A7C15, Idx: i}
		}
		SortSlots(slots)
	}); avg != 0 {
		t.Fatalf("SortSlots allocates %.1f objects, want 0", avg)
	}
}
