package smartidx

import (
	"testing"

	"chime/internal/dmsim"
)

// refNode is the decoded form nodes had before children were looked up
// in the fetched image: two Go maps built on every remote read. Tests
// keep the decoder, verbatim, as the reference.
type refNode struct {
	hdr header
	// children maps keybyte -> packed child (tagged); absent = none.
	children map[byte]uint64
	// slotOf maps keybyte -> slot index (for in-place updates).
	slotOf map[byte]int
	nSlots int // occupied slots
}

func refDecodeNode(addr dmsim.GAddr, img []byte) *refNode {
	h := decodeHeader(img)
	n := &refNode{
		hdr:      h,
		children: make(map[byte]uint64),
		slotOf:   make(map[byte]int),
	}
	switch h.kind {
	case kindN48:
		for kb := 0; kb < 256; kb++ {
			si := img[n48IdxOff+kb]
			if si == 0 {
				continue
			}
			s := decodeSlot(img, h.kind, int(si-1))
			if s.child != 0 {
				n.children[byte(kb)] = s.child
				n.slotOf[byte(kb)] = int(si - 1)
				n.nSlots++
			}
		}
	case kindN256:
		for i := 0; i < 256; i++ {
			s := decodeSlot(img, h.kind, i)
			if s.child != 0 {
				n.children[byte(i)] = s.child
				n.slotOf[byte(i)] = i
				n.nSlots++
			}
		}
	default:
		for i := 0; i < kindSlots[h.kind]; i++ {
			s := decodeSlot(img, h.kind, i)
			if s.child != 0 {
				n.children[s.keyByte] = s.child
				n.slotOf[s.keyByte] = i
				n.nSlots++
			}
		}
	}
	return n
}

// refPickFreeSlot is the free-slot choice of the map-decoded node: the
// first slot no key byte maps to.
func refPickFreeSlot(n *refNode) int {
	used := make([]bool, kindSlots[n.hdr.kind])
	for _, i := range n.slotOf {
		used[i] = true
	}
	for i, u := range used {
		if !u {
			return i
		}
	}
	return -1
}

// sameChildren reports whether the in-place accessors see exactly the
// children the reference decoder does: per-key-byte lookup, slot, count
// and the ascending walk.
func sameChildren(n *node, ref *refNode) bool {
	if n.count() != ref.nSlots {
		return false
	}
	want := 0
	for kb := 0; kb < 256; kb++ {
		w, slot := n.childAt(byte(kb))
		rw, ok := ref.children[byte(kb)]
		if w != rw || (ok && slot != ref.slotOf[byte(kb)]) {
			return false
		}
		if ok {
			want++
		}
	}
	got, last := 0, -1
	for kb, w := n.next(0); kb < 256; kb, w = n.next(kb + 1) {
		if kb <= last || w != ref.children[byte(kb)] || w == 0 {
			return false
		}
		got, last = got+1, kb
	}
	return got == want
}

// FuzzChildAt drives a node image of each kind through a random sequence
// of the slot writes the client issues — install a key byte in the first
// free slot (with the Node48 index byte), swap a child word in place,
// clear a slot (and, as a delete does, only then the Node48 index byte) —
// and after every write compares the in-place lookup, the slot it names,
// the occupied count, the free-slot choice and the ascending walk with
// the map decode of the same bytes.
func FuzzChildAt(f *testing.F) {
	f.Add(uint8(0), []byte{1, 10, 2, 20, 1, 10, 0, 10, 1, 30, 1, 40, 1, 50})
	f.Add(uint8(2), []byte{1, 0, 1, 255, 1, 7, 0, 0, 1, 9, 2, 7, 0, 255, 1, 255})
	f.Fuzz(func(t *testing.T, kindSel uint8, ops []byte) {
		kind := int(kindSel) % 4
		n := &node{img: make([]byte, nodeSize(kind))}
		encodeHeader(n.img, header{kind: kind, depth: 1, prefixLen: 2, valid: true})
		n.arrived(dmsim.GAddr{Off: 64})
		word := uint64(0x1000)
		check := func(step int) {
			t.Helper()
			n.arrived(n.addr)
			ref := refDecodeNode(n.addr, n.img)
			if !sameChildren(n, ref) {
				t.Fatalf("kind %d, after op %d: in-place lookup disagrees with the map decode", kind, step)
			}
			if kind != kindN256 {
				if got, want := n.pickFreeSlot(), refPickFreeSlot(ref); got != want {
					t.Fatalf("kind %d, after op %d: pickFreeSlot = %d, map decode picks %d", kind, step, got, want)
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, kb := ops[i]%3, ops[i+1]
			w, slotIdx := n.childAt(kb)
			word += 0x40
			switch {
			case op == 0 && w != 0: // delete
				encodeSlot(n.img, kind, slotIdx, slot{keyByte: kb})
				check(i) // a reader may see the slot cleared before the index byte
				if kind == kindN48 {
					n.img[n48IdxOff+int(kb)] = 0
				}
			case w != 0: // upsert or leaf split: swap the word in place
				encodeSlot(n.img, kind, slotIdx, slot{child: word, keyByte: kb})
			case op != 0: // install
				at := int(kb)
				if kind != kindN256 {
					if at = n.pickFreeSlot(); at < 0 {
						continue // full: the client expands instead
					}
				}
				encodeSlot(n.img, kind, at, slot{child: word, keyByte: kb})
				if kind == kindN48 {
					n.img[n48IdxOff+int(kb)] = byte(at + 1)
				}
			}
			check(i)
		}
		// A node laid out from this one has the same children, in
		// ascending slot order.
		ref := refDecodeNode(n.addr, n.img)
		for to := kind; to <= kindN256; to++ {
			if n.count() > kindSlots[to] {
				continue
			}
			hdr := n.hdr
			hdr.kind = to
			out := &node{img: make([]byte, nodeSize(to))}
			encodeNode(out.img, hdr, n)
			out.arrived(dmsim.GAddr{Off: 128})
			outRef := refDecodeNode(out.addr, out.img)
			if !sameChildren(out, outRef) || len(outRef.children) != len(ref.children) {
				t.Fatalf("kind %d -> %d: encodeNode changed the children", kind, to)
			}
			for kb, w := range ref.children {
				if outRef.children[kb] != w {
					t.Fatalf("kind %d -> %d: encodeNode changed child %d", kind, to, kb)
				}
			}
			for i := 0; to < kindN256 && i < out.count(); i++ {
				if s := decodeSlot(out.img, to, i); s.child == 0 || (i > 0 && s.keyByte <= decodeSlot(out.img, to, i-1).keyByte) {
					t.Fatalf("kind %d -> %d: slot %d is not the next key byte in ascending order", kind, to, i)
				}
			}
		}
	})
}
