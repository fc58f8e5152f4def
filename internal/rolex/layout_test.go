package rolex

import (
	"bytes"
	"encoding/binary"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/nodelayout"
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
	hopBM    uint16 // hopscotch-leaf mode only
	key      uint64
	val      []byte
}

func refEncodeEntry(l *layout, img []byte, i int, e refEntry, bump bool) {
	c := l.entryCells[i]
	content := make([]byte, c.Content)
	if e.occupied {
		content[0] |= flagOccupied
	}
	off := 1
	if l.hop {
		binary.LittleEndian.PutUint16(content[1:3], e.hopBM)
		off = 3
	}
	binary.LittleEndian.PutUint64(content[off:off+8], e.key)
	copy(content[off+8:], e.val)
	nodelayout.WriteCellContentAt(img, c, 0, content)
	if bump {
		nodelayout.BumpEV(img, c)
	}
}

func refDecodeEntry(l *layout, img []byte, i int) refEntry {
	c := l.entryCells[i]
	content := readCell(img, c)
	e := refEntry{occupied: content[0]&flagOccupied != 0}
	off := 1
	if l.hop {
		e.hopBM = binary.LittleEndian.Uint16(content[1:3])
		off = 3
	}
	e.key = binary.LittleEndian.Uint64(content[off : off+8])
	e.val = content[off+8:]
	return e
}

func refSetChain(l *layout, img []byte, chain dmsim.GAddr) {
	content := make([]byte, l.header.Content)
	binary.LittleEndian.PutUint64(content, chain.Pack())
	nodelayout.WriteCellContentAt(img, l.header, 0, content)
}

func refChain(l *layout, img []byte) dmsim.GAddr {
	content := readCell(img, l.header)
	return dmsim.UnpackGAddr(binary.LittleEndian.Uint64(content))
}

// refApplyHopMove is the decode-modify-encode hop move the field writes
// replaced.
func refApplyHopMove(lay *layout, img []byte, m hopscotch.Move, bump bool) {
	e := refDecodeEntry(lay, img, m.From)
	kHome := lay.homeOf(e.key)

	tgt := refDecodeEntry(lay, img, m.To)
	tgt.occupied, tgt.key = true, e.key
	tgt.val = append([]byte(nil), e.val...)
	refEncodeEntry(lay, img, m.To, tgt, bump)

	src := refDecodeEntry(lay, img, m.From)
	src.occupied = false
	refEncodeEntry(lay, img, m.From, src, bump)

	hE := refDecodeEntry(lay, img, kHome)
	dOld := ((m.From-kHome)%lay.span + lay.span) % lay.span
	dNew := ((m.To-kHome)%lay.span + lay.span) % lay.span
	hE.hopBM &^= 1 << uint(dOld)
	hE.hopBM |= 1 << uint(dNew)
	refEncodeEntry(lay, img, kHome, hE, bump)
}

func fuzzLayout(valSel uint8, hop bool) *layout {
	opts := DefaultOptions()
	opts.ValueSize = []int{8, 64, 256}[int(valSel)%3]
	opts.HopscotchLeaves = hop
	return newLayout(opts)
}

// FuzzEntryCodec checks the in-place accessors against the whole-cell
// copying codec on arbitrary image bytes: slot, value, find and chain
// decode what the reference decodes, and put / vacate / setHopBM /
// setChain and a hopscotch move leave the bytes the reference's
// decode-modify-encode leaves — for one-line cells and for cells spanning
// lines (value sizes 64 and 256), with and without the hopscotch bitmap,
// fed a fresh value, the slot's own decoded value and a value aliasing
// another slot of the same image.
func FuzzEntryCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(0), false, uint8(3), uint8(5), uint64(77), []byte("value"), true, uint8(0))
	f.Add([]byte{0xff, 0x01}, uint8(1), true, uint8(0), uint8(15), uint64(1<<63), []byte{}, false, uint8(1))
	f.Add(bytes.Repeat([]byte{0xa5, 0x11}, 300), uint8(2), true, uint8(9), uint8(9), uint64(0), bytes.Repeat([]byte{7}, 300), true, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, valSel uint8, hop bool, slotA, slotB uint8, key uint64, val []byte, bump bool, mode uint8) {
		lay := fuzzLayout(valSel, hop)
		im := lay.newImage()
		for i := range im.buf {
			if len(raw) > 0 {
				im.buf[i] = raw[i%len(raw)] + byte(i/len(raw))
			}
		}
		// A flags byte only ever holds the occupied bit; setHopBM leaves
		// the byte alone where the reference's re-encode of the whole
		// entry would drop any other bit.
		for _, c := range lay.entryCells {
			im.buf[c.Off+1] &= flagOccupied
		}
		i, j := int(slotA)%lay.span, int(slotB)%lay.span

		// Decode side.
		if got, want := im.chain(), refChain(lay, im.buf); got != want {
			t.Fatalf("chain: %v, reference %v", got, want)
		}
		wantSlot, wantFree := -1, -1
		for s := 0; s < lay.span; s++ {
			ref := refDecodeEntry(lay, im.buf, s)
			occ, bm, k := im.slot(s)
			if occ != ref.occupied || bm != ref.hopBM || k != ref.key {
				t.Fatalf("slot %d: (%v, %#x, %#x), reference (%v, %#x, %#x)", s, occ, bm, k, ref.occupied, ref.hopBM, ref.key)
			}
			if !bytes.Equal(im.value(s), ref.val) {
				t.Fatalf("value %d: %x, reference %x", s, im.value(s), ref.val)
			}
			if wantSlot < 0 {
				if ref.occupied && ref.key == key {
					wantSlot = s
				} else if !ref.occupied && wantFree < 0 {
					wantFree = s
				}
			}
		}
		if slot, free := im.find(key); slot != wantSlot || free != wantFree {
			t.Fatalf("find(%#x) = (%d, %d), reference (%d, %d)", key, slot, free, wantSlot, wantFree)
		}

		// Encode side: the reference works on a copy of the image and of
		// the value, so it cannot see the aliasing.
		ref := append([]byte(nil), im.buf...)
		src := val
		switch mode % 3 {
		case 1:
			src = im.value(i) // the slot's own decoded value
		case 2:
			src = im.value(j) // another slot of the same image
		}
		if len(src) > lay.valSize {
			src = src[:lay.valSize]
		}
		e := refDecodeEntry(lay, ref, i)
		e.occupied, e.key, e.val = true, key, append([]byte(nil), src...)
		refEncodeEntry(lay, ref, i, e, bump)
		im.put(i, key, src, bump)
		if !bytes.Equal(im.buf, ref) {
			t.Fatalf("put(%d, mode %d): image differs from the reference's", i, mode%3)
		}

		e = refDecodeEntry(lay, ref, j)
		e.occupied = false
		refEncodeEntry(lay, ref, j, e, bump)
		im.vacate(j, bump)
		if !bytes.Equal(im.buf, ref) {
			t.Fatalf("vacate(%d): image differs from the reference's", j)
		}

		if lay.hop {
			e = refDecodeEntry(lay, ref, i)
			e.hopBM = uint16(key)
			refEncodeEntry(lay, ref, i, e, bump)
			im.setHopBM(i, uint16(key), bump)
			if !bytes.Equal(im.buf, ref) {
				t.Fatalf("setHopBM(%d): image differs from the reference's", i)
			}
			m := hopscotch.Move{From: i, To: j}
			refApplyHopMove(lay, ref, m, bump)
			im.applyHopMove(m, bump)
			if !bytes.Equal(im.buf, ref) {
				t.Fatalf("applyHopMove(%d -> %d): image differs from the reference's", i, j)
			}
		}

		chain := dmsim.UnpackGAddr(key)
		refSetChain(lay, ref, chain)
		im.setChain(chain)
		if !bytes.Equal(im.buf, ref) || im.chain() != refChain(lay, ref) {
			t.Fatal("setChain: image differs from the reference's")
		}
	})
}
