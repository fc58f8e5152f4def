package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// randomLeaf fills a leaf image with a valid hopscotch placement of
// random keys at roughly the given occupancy, with correct bitmaps.
func randomLeaf(t *testing.T, lay *leafLayout, r *rand.Rand, occupancy float64) *leafImage {
	t.Helper()
	kvs := make([]kvPair, int(occupancy*float64(lay.span)))
	for i := range kvs {
		kvs[i] = kvPair{key: r.Uint64(), val: make([]byte, lay.valSize)}
	}
	for {
		// A neighborhood can fill up before the leaf does (h=1 collides
		// at once): shed keys until the placement succeeds.
		if im, ok := buildLeafImage(lay, kvs); ok {
			return im
		}
		kvs = kvs[:len(kvs)*7/8]
	}
}

// perturb damages a consistent leaf the ways a torn hop-range write (or
// plain corruption) could: a stray key outside its neighborhood, a
// flipped stored-bitmap bit, a dropped or resurrected occupancy flag, a
// key swapped for one with another home.
func perturb(im *leafImage, r *rand.Rand) {
	lay := im.lay
	i := r.Intn(lay.span)
	e := im.entry(i)
	switch r.Intn(4) {
	case 0:
		e.occupied, e.key = true, r.Uint64() // lands wherever: usually far from its home
	case 1:
		e.hopBM ^= 1 << uint(r.Intn(16)) // bits >= h included: stored must equal reconstructed exactly
	case 2:
		e.occupied = !e.occupied
	case 3:
		e.key = r.Uint64()
	}
	im.setEntryNoBump(i, e)
}

// TestHopBitmapsConsistentVsReference pins the one-pass whole-leaf check
// (and the in-place per-home reconstruction) against the per-home
// copying loop it replaced, over valid leaves and damaged ones.
func TestHopBitmapsConsistentVsReference(t *testing.T) {
	for _, span := range []int{8, 64, 128, 1024} {
		for _, h := range []int{1, 4, 8, 16} {
			o := DefaultOptions()
			o.SpanSize, o.Neighborhood = span, h
			if o.Validate() != nil {
				continue // h must divide (and not exceed) span
			}
			t.Run(fmt.Sprintf("span%d_h%d", span, h), func(t *testing.T) {
				lay := newLeafLayout(o)
				r := rand.New(rand.NewSource(int64(span*100 + h)))
				rounds := 60
				if span == 1024 {
					rounds = 6 // the reference is span*h copying decodes per call
				}
				verdicts := map[bool]int{}
				for round := 0; round < rounds; round++ {
					im := randomLeaf(t, lay, r, r.Float64())
					if !scanWalk(t, im, r.Uint64()) || !refHopBitmapsConsistent(im) {
						t.Fatalf("round %d: freshly built leaf reported inconsistent", round)
					}
					for step := 0; step < 8; step++ {
						perturb(im, r)
						got, want := scanWalk(t, im, r.Uint64()>>uint(r.Intn(64))), refHopBitmapsConsistent(im)
						if got != want {
							t.Fatalf("round %d step %d: one-pass says %v, per-home reference says %v", round, step, got, want)
						}
						verdicts[got]++
						home := r.Intn(span)
						var ref uint16
						for d := 0; d < h; d++ {
							if e := refEntry(im, (home+d)%span); e.occupied && lay.homeOf(e.key) == home {
								ref |= 1 << uint(d)
							}
						}
						if bm := im.reconstructHopBitmap(home); bm != ref {
							t.Fatalf("round %d step %d: reconstructHopBitmap(%d) = %b, reference %b", round, step, home, bm, ref)
						}
					}
				}
				if verdicts[false] == 0 {
					t.Fatalf("no damaged leaf was ever inconsistent (%v): the perturbations test nothing", verdicts)
				}
			})
		}
	}
}

// TestHopBitmapsConsistentStrays covers what random damage rarely hits:
// a key sitting outside its home's neighborhood contributes to no
// bitmap, so on its own it leaves the leaf consistent — in both checks.
func TestHopBitmapsConsistentStrays(t *testing.T) {
	lay := newLeafLayout(DefaultOptions())
	im := newLeafImage(lay)
	var key uint64
	for key = 1; lay.homeOf(key) != 3; key++ {
	}
	for _, tc := range []struct {
		slot int
		bm   uint16
		want bool
	}{
		{slot: 3 + lay.h, bm: 0, want: true},          // just past the neighborhood: invisible
		{slot: 2, bm: 0, want: true},                  // wrapped distance span-1: invisible
		{slot: 3 + lay.h - 1, bm: 0, want: false},     // last neighborhood slot, bit missing
		{slot: 3 + lay.h - 1, bm: 1 << 7, want: true}, // ... and present
		{slot: 3 + lay.h, bm: 1 << 7, want: false},    // bit set for a slot that is not the key's
	} {
		clear(im.buf)
		im.setEntryNoBump(tc.slot, leafEntry{occupied: true, key: key})
		home := im.entry(3)
		home.hopBM = tc.bm
		im.setEntryNoBump(3, home)
		if got, ref := scanWalk(t, im, 0), refHopBitmapsConsistent(im); got != tc.want || ref != tc.want {
			t.Errorf("key homed at 3 in slot %d, stored bitmap %b: one-pass %v, reference %v, want %v", tc.slot, tc.bm, got, ref, tc.want)
		}
	}
}

// fuzzLeafLayouts are the entry-cell shapes FuzzLeafEntryDecode covers:
// single-line (8 B inline values, the default), and big cells of two and
// five lines.
var fuzzLeafLayouts = func() []*leafLayout {
	var lays []*leafLayout
	for _, valSize := range []int{8, 64, 256} {
		o := DefaultOptions()
		o.ValueSize = valSize
		lays = append(lays, newLeafLayout(o))
	}
	return lays
}()

// FuzzLeafEntryDecode checks, on arbitrary image bytes, that the
// in-place decode of an entry and of a metadata replica equals the
// whole-cell copying decode (nodelayout.ReadCellContent) it replaced,
// and that the in-place encode writes the bytes the whole-cell encode
// (nodelayout.WriteCellContent) did — including when the entry written
// is the slot's own aliased decode.
func FuzzLeafEntryDecode(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{})
	f.Add(uint8(1), uint16(5), []byte{1, 0xEF, 0xBE, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(2), uint16(63), bytes.Repeat([]byte{0xFF, 0x00, 0x5A}, 200))
	f.Fuzz(func(t *testing.T, sel uint8, slotRaw uint16, raw []byte) {
		lay := fuzzLeafLayouts[int(sel)%len(fuzzLeafLayouts)]
		i := int(slotRaw) % lay.span
		im := newLeafImage(lay)
		if len(raw) > 0 {
			// Tile raw over the image starting at the slot under test, so
			// short inputs still reach it.
			start := lay.entryCells[i].Off
			for k := range im.buf {
				im.buf[(start+k)%len(im.buf)] = raw[k%len(raw)]
			}
		}

		got, want := im.entry(i), refEntry(im, i)
		if got.occupied != want.occupied || got.hopBM != want.hopBM || got.key != want.key || !bytes.Equal(got.value, want.value) {
			t.Fatalf("slot %d: in-place decode %+v, copying decode %+v", i, got, want)
		}
		if cap(got.value) != lay.valSize {
			t.Fatalf("slot %d: decoded value cap %d, want %d (append must not reach the image)", i, cap(got.value), lay.valSize)
		}
		if occ, bm, key := im.slot(i); occ != want.occupied || bm != want.hopBM || key != want.key {
			t.Fatalf("slot %d: slot() = %v %x %x, copying decode %+v", i, occ, bm, key, want)
		}

		g := lay.groupOfEntry(i)
		rc := lay.replicaCells[g]
		content := readCellContent(im.buf, rc, nil)
		m := im.meta(g)
		if m.valid != (content[0]&replicaFlagValid != 0) || m.fenceInf != (content[0]&replicaFlagFenceInf != 0) ||
			m.sibling.Pack() != binary.LittleEndian.Uint64(content[1:9]) || m.fenceHi != binary.LittleEndian.Uint64(content[9:17]) {
			t.Fatalf("replica %d: in-place decode %+v of content %x", g, m, content)
		}

		// Encode: the slot's own decode with one field changed (the
		// read-modify-write every writer does), then a short value.
		for _, e := range []leafEntry{
			{occupied: !got.occupied, hopBM: got.hopBM ^ 0x8001, key: got.key + 1, value: got.value},
			{occupied: true, hopBM: 7, key: 42, value: []byte{9, 8, 7}},
		} {
			ref := append([]byte(nil), im.buf...)
			c := lay.entryCells[i]
			whole := make([]byte, c.Content)
			if e.occupied {
				whole[0] |= entryFlagOccupied
			}
			binary.LittleEndian.PutUint16(whole[1:3], e.hopBM)
			binary.LittleEndian.PutUint64(whole[3:11], e.key)
			copy(whole[3+lay.keySize:], e.value)
			writeCellContent(ref, c, whole)

			im.setEntryNoBump(i, e)
			if !bytes.Equal(im.buf, ref) {
				t.Fatalf("slot %d: in-place encode of %+v differs from whole-cell encode", i, e)
			}
		}
	})
}

// TestInternalNodeCodecWideKeys round-trips an internal node whose
// modelled key is wide enough to make the pivot cells big, so the child
// pointer sits behind (or across) a version byte.
func TestInternalNodeCodecWideKeys(t *testing.T) {
	for _, keySize := range []int{8, 48, 56, 60, 120, 256} {
		o := DefaultOptions()
		o.KeySize = keySize
		lay := newInternalLayout(o)
		n := &internalNode{internalHeader: internalHeader{level: 2, valid: true, fenceLow: 5, fenceHi: 1 << 40, sibling: gaddr(1, 0x4440), leftmost: gaddr(0, 0x80)}}
		for i := 0; i < lay.span; i++ {
			n.entries = append(n.entries, pivotEntry{pivot: uint64(10 + i*3), child: gaddr(uint8(i%3), uint64(0x1000+i*64))})
		}
		prev := make([]byte, lay.size)
		for i := range prev {
			prev[i] = 0xEE // stale bytes an in-place encode must not inherit as padding
		}
		img := lay.encodeInternal(n, prev)
		got := lay.decodeInternal(gaddr(0, 0), lay.imageOf(img))
		if len(got.entries) != len(n.entries) || got.fenceHi != n.fenceHi || got.sibling != n.sibling || got.leftmost != n.leftmost {
			t.Fatalf("keySize %d: header round trip: %+v", keySize, got)
		}
		for i, e := range got.entries {
			if e != n.entries[i] {
				t.Fatalf("keySize %d: entry %d = %+v, want %+v", keySize, i, e, n.entries[i])
			}
			// Reference: whole-cell gather of the pivot cell.
			content := readCellContent(img, lay.entryCells[i], nil)
			if binary.LittleEndian.Uint64(content[:8]) != e.pivot || binary.LittleEndian.Uint64(content[keySize:]) != e.child.Pack() {
				t.Fatalf("keySize %d: entry %d disagrees with the whole-cell decode", keySize, i)
			}
			if pad := content[8:keySize]; !bytes.Equal(pad, make([]byte, len(pad))) {
				t.Fatalf("keySize %d: entry %d key padding not cleared: %x", keySize, i, pad)
			}
		}
	}
}
