package sherman

import (
	"bytes"
	"encoding/binary"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/nodelayout"
	"chime/internal/offroute"
)

// The whole-cell copying codec the in-place accessors replaced, verbatim:
// gather a cell's content into a fresh buffer, slice the copy; build a
// cell's content in a fresh buffer, scatter it. Tests keep it as the
// reference.

// readCell gathers a whole cell's content through nodelayout's sub-range
// helpers (as the encoders below scatter it), which that package pins
// against its own whole-cell reference codec.
func readCell(img []byte, c nodelayout.Cell) []byte {
	content := make([]byte, c.Content)
	nodelayout.ReadCellContentAt(img, c, 0, content)
	return content
}

type refEntry struct {
	occupied bool
	key      uint64
	val      []byte
}

func refEncodeHeader(l *layout, img []byte, h header) {
	content := make([]byte, l.header.Content)
	if h.valid {
		content[0] |= flagValid
	}
	if h.fenceInf {
		content[0] |= flagFenceInf
	}
	content[1] = h.level
	binary.LittleEndian.PutUint16(content[2:4], uint16(h.nkeys))
	binary.LittleEndian.PutUint64(content[4:12], h.fenceLow)
	binary.LittleEndian.PutUint64(content[12:20], h.fenceHi)
	binary.LittleEndian.PutUint64(content[20:28], h.sibling.Pack())
	binary.LittleEndian.PutUint64(content[28:36], h.leftmost.Pack())
	nodelayout.WriteCellContentAt(img, l.header, 0, content)
}

func refDecodeHeader(l *layout, img []byte) header {
	content := readCell(img, l.header)
	h := header{
		valid:    content[0]&flagValid != 0,
		fenceInf: content[0]&flagFenceInf != 0,
		level:    content[1],
		nkeys:    int(binary.LittleEndian.Uint16(content[2:4])),
		fenceLow: binary.LittleEndian.Uint64(content[4:12]),
		fenceHi:  binary.LittleEndian.Uint64(content[12:20]),
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(content[20:28])),
		leftmost: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(content[28:36])),
	}
	if h.nkeys > l.span {
		h.nkeys = l.span
	}
	return h
}

func refEncodeEntry(l *layout, img []byte, i int, e refEntry, bump bool) {
	c := l.entryCells[i]
	content := make([]byte, c.Content)
	if e.occupied {
		content[0] |= flagOccupied
	}
	binary.LittleEndian.PutUint64(content[1:9], e.key)
	copy(content[1+l.keySize:], e.val)
	nodelayout.WriteCellContentAt(img, c, 0, content)
	if bump {
		nodelayout.BumpEV(img, c)
	}
}

func refDecodeEntry(l *layout, img []byte, i int) refEntry {
	c := l.entryCells[i]
	content := readCell(img, c)
	return refEntry{
		occupied: content[0]&flagOccupied != 0,
		key:      binary.LittleEndian.Uint64(content[1:9]),
		val:      content[1+l.keySize:],
	}
}

func TestHeaderCodecRoundTrip(t *testing.T) {
	lay := newLayout(DefaultOptions(), false)
	im := lay.newImage()
	want := header{
		valid:    true,
		fenceInf: true,
		level:    3,
		nkeys:    17,
		fenceLow: 100,
		fenceHi:  99999,
		sibling:  dmsim.GAddr{MN: 1, Off: 4096},
		leftmost: dmsim.GAddr{MN: 0, Off: 8192},
	}
	im.setHeader(want)
	if got := im.header(); got != want {
		t.Fatalf("header round trip: %+v != %+v", got, want)
	}
	if got := refDecodeHeader(lay, im.buf); got != want {
		t.Fatalf("reference decode of the in-place header: %+v != %+v", got, want)
	}
	ref := make([]byte, lay.size)
	refEncodeHeader(lay, ref, want)
	if !bytes.Equal(ref, im.buf) {
		t.Fatal("in-place header bytes differ from the reference encoder's")
	}
}

func TestHeaderNkeysClamped(t *testing.T) {
	lay := newLayout(DefaultOptions(), false)
	im := lay.newImage()
	im.setHeader(header{nkeys: 9999})
	if got := im.header(); got.nkeys > lay.span {
		t.Fatalf("torn nkeys not clamped: %d", got.nkeys)
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	for _, leaf := range []bool{true, false} {
		lay := newLayout(DefaultOptions(), leaf)
		im := lay.newImage()
		val := make([]byte, lay.valSize)
		for i := range val {
			val[i] = byte(i)
		}
		im.setEntry(3, 0xABCDEF, val, true)
		occupied, key := im.slot(3)
		if !occupied || key != 0xABCDEF || !bytes.Equal(im.value(3), val) {
			t.Fatalf("leaf=%v entry round trip: %v %#x %x", leaf, occupied, key, im.value(3))
		}
		if occ, _ := im.slot(2); occ {
			t.Fatal("neighbor 2 contaminated")
		}
		if occ, _ := im.slot(4); occ {
			t.Fatal("neighbor 4 contaminated")
		}
		if slot, free := im.find(0xABCDEF); slot != 3 || free != 0 {
			t.Fatalf("find = %d, %d", slot, free)
		}
		if slot, free := im.find(7); slot != -1 || free != 0 {
			t.Fatalf("find absent = %d, %d", slot, free)
		}
	}
}

// TestInternalImageRoundTrip: an internal node written by
// encodeInternalNode decodes to itself, and the in-place childFor routes
// every key the way the decoded node does — with one-line cells and with
// 64-byte keys, whose cells span lines.
func TestInternalImageRoundTrip(t *testing.T) {
	for _, keySize := range []int{8, 64} {
		opts := DefaultOptions()
		opts.KeySize = keySize
		lay := newLayout(opts, false)
		n := &node{hdr: header{valid: true, level: 2, fenceLow: 5, fenceHi: 900, leftmost: dmsim.GAddr{Off: 64}}}
		for i := 0; i < 37; i++ {
			n.piv = append(n.piv, uint64(10+20*i))
			n.kids = append(n.kids, dmsim.GAddr{MN: uint8(i % 3), Off: uint64(4096 * (i + 1))})
		}
		im := lay.newImage()
		encodeInternalNode(n, im, false)
		if err := im.check(); err != nil {
			t.Fatal(err)
		}
		hdr := im.header()
		got := decodeInternal(dmsim.GAddr{Off: 1}, im, hdr)
		if got.hdr.nkeys != len(n.piv) || len(got.piv) != len(n.piv) {
			t.Fatalf("keySize %d: decoded %d pivots, want %d", keySize, len(got.piv), len(n.piv))
		}
		for i := range n.piv {
			if got.piv[i] != n.piv[i] || got.kids[i] != n.kids[i] {
				t.Fatalf("keySize %d: entry %d = (%d, %v), want (%d, %v)", keySize, i, got.piv[i], got.kids[i], n.piv[i], n.kids[i])
			}
		}
		for key := uint64(0); key < 800; key++ {
			if a, b := im.childFor(hdr, key), got.childFor(key); a != b {
				t.Fatalf("keySize %d: childFor(%d) in place = %v, decoded = %v", keySize, key, a, b)
			}
		}
	}
}

func TestChildForBoundaries(t *testing.T) {
	n := &node{
		hdr: header{leftmost: dmsim.GAddr{Off: 1}},
		piv: []uint64{10, 20, 30},
		kids: []dmsim.GAddr{
			{Off: 2}, {Off: 3}, {Off: 4},
		},
	}
	n.hdr.leftmost = dmsim.GAddr{Off: 1}
	cases := map[uint64]uint64{0: 1, 9: 1, 10: 2, 19: 2, 20: 3, 30: 4, 1000: 4}
	for key, want := range cases {
		if got := n.childFor(key); got.Off != want {
			t.Errorf("childFor(%d) = %d, want %d", key, got.Off, want)
		}
	}
}

// TestSortEntries: splits and scans collect a leaf's occupied in-range
// slots and sort them by key.
func TestSortEntries(t *testing.T) {
	lay := newLayout(DefaultOptions(), true)
	im := lay.newImage()
	im.setEntry(0, 30, val8(30), false)
	im.setEntry(1, 5, val8(5), false)
	im.clearEntry(1, false) // skipped
	im.setEntry(2, 10, val8(10), false)
	im.setEntry(5, 20, val8(20), false)
	out := im.occupied(nil, 0)
	offroute.SortSlots(out, new(offroute.SortScratch))
	want := []offroute.ScanSlot{{Key: 10, Idx: 2}, {Key: 20, Idx: 5}, {Key: 30, Idx: 0}}
	if len(out) != len(want) {
		t.Fatalf("sorted slots: %+v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("sorted slots: %+v, want %+v", out, want)
		}
	}
	if out := im.occupied(nil, 15); len(out) != 2 {
		t.Fatalf("occupied(start=15): %+v", out)
	}
}

func TestScanStartBeyondAllKeys(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	for i := uint64(1); i <= 100; i++ {
		if err := cl.Insert(i, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := cl.Scan(1000, 10)
	if err != nil || len(out) != 0 {
		t.Fatalf("past-end scan: %d %v", len(out), err)
	}
	if out, _ := cl.Scan(50, 0); out != nil {
		t.Fatal("count=0 must return nil")
	}
}

// FuzzEntryCodec checks the in-place accessors against the whole-cell
// copying codec on arbitrary image bytes: slot, value, child, find and
// header decode what the reference decodes, and setEntry / clearEntry /
// setHeader leave the bytes the reference encoder leaves — for one-line
// cells and for cells spanning lines (value sizes 64 and 256, key size
// 32 with them), fed a fresh value, the slot's own decoded value and a
// value aliasing another slot of the same image.
func FuzzEntryCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(0), uint8(0), uint8(3), uint8(5), uint64(77), []byte("value"), true, uint8(0))
	f.Add([]byte{0xff, 0x01}, uint8(1), uint8(1), uint8(0), uint8(63), uint64(1<<63), []byte{}, false, uint8(1))
	f.Add(bytes.Repeat([]byte{0xa5, 0x11}, 300), uint8(2), uint8(1), uint8(9), uint8(9), uint64(0), bytes.Repeat([]byte{7}, 300), true, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, valSel, keySel, slotA, slotB uint8, key uint64, val []byte, bump bool, mode uint8) {
		opts := DefaultOptions()
		opts.SpanSize = 16
		opts.ValueSize = []int{8, 64, 256}[int(valSel)%3]
		opts.KeySize = []int{8, 32}[int(keySel)%2]
		for _, leaf := range []bool{true, false} {
			lay := newLayout(opts, leaf)
			im := lay.newImage()
			for i := range im.buf {
				if len(raw) > 0 {
					im.buf[i] = raw[i%len(raw)] + byte(i/len(raw))
				}
			}
			i, j := int(slotA)%lay.span, int(slotB)%lay.span

			// Decode side.
			if got, want := im.header(), refDecodeHeader(lay, im.buf); got != want {
				t.Fatalf("header: %+v, reference %+v", got, want)
			}
			for s := 0; s < lay.span; s++ {
				ref := refDecodeEntry(lay, im.buf, s)
				occ, k := im.slot(s)
				if occ != ref.occupied || k != ref.key {
					t.Fatalf("slot %d: (%v, %#x), reference (%v, %#x)", s, occ, k, ref.occupied, ref.key)
				}
				if leaf && !bytes.Equal(im.value(s), ref.val) {
					t.Fatalf("value %d: %x, reference %x", s, im.value(s), ref.val)
				}
				if !leaf && im.child(s) != ptrOf(ref.val) {
					t.Fatalf("child %d: %v, reference %v", s, im.child(s), ptrOf(ref.val))
				}
			}
			wantSlot, wantFree := -1, -1
			for s := 0; s < lay.span && wantSlot < 0; s++ {
				ref := refDecodeEntry(lay, im.buf, s)
				if ref.occupied && ref.key == key {
					wantSlot = s
				} else if !ref.occupied && wantFree < 0 {
					wantFree = s
				}
			}
			if slot, free := im.find(key); slot != wantSlot || free != wantFree {
				t.Fatalf("find(%#x) = (%d, %d), reference (%d, %d)", key, slot, free, wantSlot, wantFree)
			}

			// Encode side: the reference works on a copy of the image and
			// of the value, so it cannot see the aliasing.
			ref := append([]byte(nil), im.buf...)
			src := val
			switch {
			case !leaf:
				// internal images have no value(): a fresh word only
			case mode%3 == 1:
				src = im.value(i) // the slot's own decoded value
			case mode%3 == 2:
				src = im.value(j) // another slot of the same image
			}
			if len(src) > lay.valSize {
				src = src[:lay.valSize]
			}
			refEncodeEntry(lay, ref, i, refEntry{occupied: true, key: key, val: append([]byte(nil), src...)}, bump)
			im.setEntry(i, key, src, bump)
			if !bytes.Equal(im.buf, ref) {
				t.Fatalf("setEntry(%d, mode %d): image differs from the reference encoder's", i, mode%3)
			}
			if leaf && !bytes.Equal(im.value(i)[:len(src)], refDecodeEntry(lay, ref, i).val[:len(src)]) {
				t.Fatalf("value(%d) after setEntry differs from the reference", i)
			}
			refEncodeEntry(lay, ref, j, refEntry{}, bump)
			im.clearEntry(j, bump)
			if !bytes.Equal(im.buf, ref) {
				t.Fatalf("clearEntry(%d): image differs from the reference encoder's", j)
			}
			h := refDecodeHeader(lay, ref)
			h.nkeys, h.fenceLow, h.level = int(slotA)%(lay.span+1), key, slotB
			refEncodeHeader(lay, ref, h)
			im.setHeader(h)
			if !bytes.Equal(im.buf, ref) {
				t.Fatal("setHeader: image differs from the reference encoder's")
			}
		}
	})
}
