package offroute

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
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

// sortKeys are the key sets SortSlots is pinned on: n unique keys each
// (keys mod 7 besides, for repeats), drawn to defeat a distribution
// sort as well as to look like what a node holds.
var sortKeys = map[string]func(rng *rand.Rand, n int) []uint64{
	"hashed": func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		for i, k := range rng.Perm(n) {
			keys[i] = uint64(k)*0x9E3779B97F4A7C15 + 1
		}
		return keys
	},
	"one bucket": func(rng *rand.Rand, n int) []uint64 { // all but the greatest in the lowest bucket
		keys := make([]uint64, n)
		base := rng.Uint64() >> 1
		for i := range keys {
			keys[i] = base + uint64(i)
		}
		if n > 0 {
			keys[n-1] = math.MaxUint64
		}
		return keys
	},
	"extremes": func(rng *rand.Rand, n int) []uint64 { // 0 and MaxUint64 together
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() // at seed 24 none repeats, and none is 0 or MaxUint64
		}
		copy(keys, []uint64{0, math.MaxUint64}[:min(n, 2)])
		return keys
	},
	"progression": func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		d := 1 + rng.Uint64()%(math.MaxUint64/uint64(n+1))
		a := rng.Uint64() % (math.MaxUint64 - d*uint64(n))
		for i := range keys {
			keys[i] = a + d*uint64(i)
		}
		return keys
	},
	"leaf group": func(rng *rand.Rand, n int) []uint64 {
		// A ROLEX group longer than one span: leaves of 64 consecutive
		// keys of a sparse range, each in hash order, one after another.
		keys := make([]uint64, n)
		next := rng.Uint64() >> 2
		for i := range keys {
			next += 1 + uint64(rng.Intn(1000))
			keys[i] = next
		}
		for lo := 0; lo < n; lo += 64 {
			leaf := keys[lo:min(lo+64, n)]
			rng.Shuffle(len(leaf), func(i, j int) { leaf[i], leaf[j] = leaf[j], leaf[i] })
		}
		return keys
	},
}

// TestSortSlotsMatchesSortFunc: on unique keys (what a node holds) the
// sort returns exactly what slices.SortFunc does, for every length up
// to 1024, every key set of sortKeys and whatever order the slots
// arrive in; with repeated keys the key order still agrees. A warm sort
// allocates nothing.
func TestSortSlotsMatchesSortFunc(t *testing.T) {
	byKey := func(a, b ScanSlot) int { return cmp.Compare(a.Key, b.Key) }
	rng := rand.New(rand.NewSource(24))
	arrange := map[string]func([]ScanSlot){
		"as drawn":  func([]ScanSlot) {},
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
	var sc SortScratch
	for n := 0; n <= 1024; n++ {
		for what, draw := range sortKeys {
			for how, arr := range arrange {
				for _, modulus := range []uint64{0, 7} { // 0: unique keys
					got := make([]ScanSlot, n)
					for i, key := range draw(rng, n) {
						if modulus != 0 {
							key %= modulus
						}
						got[i] = ScanSlot{Key: key, Idx: i}
					}
					arr(got)
					want := slices.Clone(got)
					slices.SortFunc(want, byKey)
					SortSlots(got, &sc)
					if modulus == 0 && !slices.Equal(got, want) {
						t.Fatalf("%d %s keys %s: got %v, want %v", n, what, how, got, want)
					}
					if !slices.EqualFunc(got, want, func(a, b ScanSlot) bool { return a.Key == b.Key }) {
						t.Fatalf("%d %s keys mod %d %s: key order %v, want %v", n, what, modulus, how, got, want)
					}
				}
			}
		}
	}
	slots := make([]ScanSlot, 1024)
	for what, draw := range sortKeys {
		keys := draw(rng, len(slots))
		if avg := testing.AllocsPerRun(20, func() {
			for i := range slots {
				slots[i] = ScanSlot{Key: keys[i], Idx: i}
			}
			SortSlots(slots, &sc)
		}); avg != 0 {
			t.Fatalf("SortSlots of %s keys allocates %.1f objects, want 0", what, avg)
		}
	}
}

// FuzzSortSlots: any keys at all, eight bytes each, come out in the
// order slices.SortFunc gives them — exactly, when none repeats.
func FuzzSortSlots(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0}, 40))
	seed := make([]byte, 0, 8*100)
	for i := uint64(0); i < 100; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, i*i*i*0x9E3779B97F4A7C15)
	}
	f.Add(seed)
	var sc SortScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		s := make([]ScanSlot, len(data)/8)
		unique := map[uint64]bool{}
		for i := range s {
			s[i] = ScanSlot{Key: binary.LittleEndian.Uint64(data[8*i:]), Idx: i}
			unique[s[i].Key] = true
		}
		want := slices.Clone(s)
		slices.SortFunc(want, func(a, b ScanSlot) int { return cmp.Compare(a.Key, b.Key) })
		SortSlots(s, &sc)
		if len(unique) == len(s) && !slices.Equal(s, want) {
			t.Fatalf("got %v, want %v", s, want)
		}
		if !slices.EqualFunc(s, want, func(a, b ScanSlot) bool { return a.Key == b.Key }) {
			t.Fatalf("key order %v, want %v", s, want)
		}
	})
}
