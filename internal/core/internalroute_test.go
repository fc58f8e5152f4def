package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"chime/internal/dmsim"
)

// refDecodeInternal is the copying decode of an internal node as it was
// before routing went in place, on the whole-cell codec
// (nodelayout.ReadCellContent) instead of the layout's offset tables:
// with refChildFor, the oracle for everything routed on the image.
func refDecodeInternal(lay *internalLayout, img []byte) *internalNode {
	h := readCellContent(img, lay.headerCell, nil)
	n := &internalNode{internalHeader: internalHeader{
		valid:    h[0]&inodeFlagValid != 0,
		fenceInf: h[0]&inodeFlagFenceInf != 0,
		level:    h[1],
		fenceLow: binary.LittleEndian.Uint64(h[4:12]),
		fenceHi:  binary.LittleEndian.Uint64(h[12:20]),
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(h[20:28])),
		leftmost: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(h[28:36])),
	}}
	nkeys := int(binary.LittleEndian.Uint16(h[2:4]))
	if nkeys > lay.span {
		nkeys = lay.span
	}
	for i := 0; i < nkeys; i++ {
		e := readCellContent(img, lay.entryCells[i], nil)
		n.entries = append(n.entries, pivotEntry{
			pivot: binary.LittleEndian.Uint64(e[:8]),
			child: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(e[lay.keySize:])),
		})
	}
	return n
}

// refChildFor is childFor as it ran on the fully decoded node before
// routing went in place; the in-place one is checked against it.
func refChildFor(n *internalNode, key uint64) (child dmsim.GAddr, entryIdx int, next dmsim.GAddr) {
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].pivot > key })
	if i == 0 {
		child = n.leftmost
		entryIdx = -1
	} else {
		child = n.entries[i-1].child
		entryIdx = i - 1
	}
	if i < len(n.entries) {
		next = n.entries[i].child
	}
	return child, entryIdx, next
}

// refRoute is the body every descent's loop had before route folded it
// into one place, on the decoded node.
func refRoute(n *internalNode, key uint64) route {
	if !n.valid {
		return route{kind: routeLost}
	}
	if !n.covers(key) {
		if !n.fenceInf && key >= n.fenceHi && !n.sibling.IsNil() {
			return route{kind: routeRight, child: n.sibling}
		}
		return route{kind: routeLost}
	}
	child, _, next := refChildFor(n, key)
	if child.IsNil() {
		return route{kind: routeLost}
	}
	return route{kind: routeDown, level: n.level, child: child, next: next}
}

// checkRouting compares everything a descent reads off an image with the
// oracle's answer for one key.
func checkRouting(t *testing.T, lay *internalLayout, im *internalImage, key uint64) {
	t.Helper()
	ref := refDecodeInternal(lay, im.buf)
	if im.internalHeader != ref.internalHeader || im.nkeys != len(ref.entries) {
		t.Fatalf("header decoded in place %+v (%d keys), copying decode %+v (%d keys)",
			im.internalHeader, im.nkeys, ref.internalHeader, len(ref.entries))
	}
	gc, gi, gn := im.childFor(key)
	wc, wi, wn := refChildFor(ref, key)
	if gc != wc || gi != wi || gn != wn {
		t.Fatalf("keySize %d, %d keys: childFor(%#x) in place = (%v, %d, %v), on the decoded node (%v, %d, %v)",
			lay.keySize, im.nkeys, key, gc, gi, gn, wc, wi, wn)
	}
	if got, want := im.route(key), refRoute(ref, key); got != want {
		t.Fatalf("keySize %d, %d keys: route(%#x) in place = %+v, on the decoded node %+v", lay.keySize, im.nkeys, key, got, want)
	}
	// What a scan's window reads ahead: the children after the routed one,
	// appended behind whatever dst holds.
	var wantAfter []dmsim.GAddr
	for _, e := range ref.entries[wi+1:] {
		wantAfter = append(wantAfter, e.child)
	}
	sentinel := gaddr(2, 0x40)
	ac, after := im.childrenAfter([]dmsim.GAddr{sentinel}, key)
	if ac != wc || after[0] != sentinel || !slices.Equal(after[1:], wantAfter) {
		t.Fatalf("keySize %d, %d keys: childrenAfter(%#x) in place = (%v, %v), on the decoded node (%v, %v)",
			lay.keySize, im.nkeys, key, ac, after[1:], wc, wantAfter)
	}
	full := lay.decodeInternal(gaddr(0, 64), im)
	if full.internalHeader != ref.internalHeader || len(full.entries) != len(ref.entries) {
		t.Fatalf("decodeInternal header %+v (%d entries), oracle %+v (%d)", full.internalHeader, len(full.entries), ref.internalHeader, len(ref.entries))
	}
	for i, e := range full.entries {
		if e != ref.entries[i] {
			t.Fatalf("decodeInternal entry %d = %+v, oracle %+v", i, e, ref.entries[i])
		}
	}
}

// TestChildForInPlaceVsDecoded walks every key class through nodes of
// every shape: keys below the first pivot, on each pivot, one either
// side of it, past the last; nodes with no keys, one, a full span; key
// sizes that keep the child pointer in the pivot's line, push it behind
// a version byte, and split it across one; and a header whose nkeys was
// torn past the span.
func TestChildForInPlaceVsDecoded(t *testing.T) {
	for _, keySize := range []int{8, 48, 55, 56, 60, 63, 120, 256} {
		o := DefaultOptions()
		o.KeySize = keySize
		lay := newInternalLayout(o)
		for _, nkeys := range []int{0, 1, 2, lay.span / 2, lay.span - 1, lay.span} {
			n := &internalNode{internalHeader: internalHeader{
				level: 2, valid: true, fenceLow: 100, fenceHi: 100 + uint64(lay.span+2)*10,
				sibling: gaddr(1, 0x7000), leftmost: gaddr(0, 0x40),
			}}
			for i := 0; i < nkeys; i++ {
				n.entries = append(n.entries, pivotEntry{pivot: 110 + uint64(i)*10, child: gaddr(uint8(i%3), uint64(0x1000+i*64))})
			}
			img := lay.encodeInternal(n, bytes.Repeat([]byte{0xEE}, lay.size))
			im := lay.imageOf(img)

			keys := []uint64{0, 99, 100, 101, n.fenceHi - 1, n.fenceHi, n.fenceHi + 1, ^uint64(0)}
			for _, e := range n.entries {
				keys = append(keys, e.pivot-1, e.pivot, e.pivot+1)
			}
			for _, key := range keys {
				checkRouting(t, lay, im, key)
			}
			// And against the node as built, not only the oracle's
			// reading of its bytes.
			for i, e := range n.entries {
				child, idx, next := im.childFor(e.pivot + 5)
				wantNext := dmsim.NilGAddr
				if i+1 < nkeys {
					wantNext = n.entries[i+1].child
				}
				if child != e.child || idx != i || next != wantNext {
					t.Fatalf("keySize %d: childFor(pivot %d + 5) = (%v, %d, %v), want (%v, %d, %v)", keySize, i, child, idx, next, e.child, i, wantNext)
				}
			}
			if child, idx, _ := im.childFor(105); child != n.leftmost || idx != -1 {
				t.Fatalf("keySize %d: key below the first pivot routed to (%v, %d), want the leftmost child", keySize, child, idx)
			}

			// A torn header: nkeys past the span must clamp, not index
			// past the offset tables.
			torn := append([]byte(nil), img...)
			binary.LittleEndian.PutUint16(torn[lay.headerCell.Off+1+2:], uint16(lay.span+7))
			tim := lay.imageOf(torn)
			if tim.nkeys != lay.span {
				t.Fatalf("torn nkeys decoded as %d, want the span %d", tim.nkeys, lay.span)
			}
			for _, key := range keys {
				checkRouting(t, lay, tim, key)
			}
		}
	}
}

var fuzzInternalLayouts = func() []*internalLayout {
	var lays []*internalLayout
	for _, keySize := range []int{8, 56, 60, 256} {
		o := DefaultOptions()
		o.KeySize = keySize
		lays = append(lays, newInternalLayout(o))
	}
	o := DefaultOptions()
	o.SpanSize, o.Neighborhood = 4, 4
	return append(lays, newInternalLayout(o))
}()

// FuzzInternalRoute checks, on arbitrary image bytes, that the header
// decode, childFor, route and the full decode all agree with the copying
// decode and the routing code they replaced. Arbitrary bytes are unsorted
// pivots and torn headers: both binary searches must still take the same
// probes.
func FuzzInternalRoute(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{})
	f.Add(uint8(1), uint64(1<<40), bytes.Repeat([]byte{0xFF, 0x00, 0x5A}, 300))
	f.Add(uint8(4), uint64(0xA5A5A5A5A5A5A5A5), bytes.Repeat([]byte{poisonByte}, 64))
	f.Fuzz(func(t *testing.T, sel uint8, key uint64, raw []byte) {
		lay := fuzzInternalLayouts[int(sel)%len(fuzzInternalLayouts)]
		buf := make([]byte, lay.size)
		if len(raw) > 0 {
			// Tile raw over the image from the header cell on, so short
			// inputs still set the header.
			for k := range buf {
				buf[(lay.headerCell.Off+k)%len(buf)] = raw[k%len(raw)]
			}
		}
		im := lay.imageOf(buf)
		checkRouting(t, lay, im, key)
		for _, i := range []int{0, im.nkeys / 2, im.nkeys - 1} {
			if i >= 0 && i < im.nkeys {
				checkRouting(t, lay, im, binary.LittleEndian.Uint64(buf[lay.pivotOff[i]:]))
			}
		}
	})
}

// coldTreeKeys loads enough leaves for two internal levels.
const coldTreeKeys = 6000

// buildColdTree is buildAllocTree with the node cache and the hotspot
// buffer off: every search is a full descent from the root.
func buildColdTree(tb testing.TB, n int) *Client {
	tb.Helper()
	warm := buildAllocTree(tb, n)
	return warm.ix.NewComputeNode(1, 0).NewClient()
}

// TestSearchColdAllocsBounded pins the cold descent: every internal
// level is fetched into a recycled image and routed on in place, the
// leaf window is cut and validated in scratch.
func TestSearchColdAllocsBounded(t *testing.T) {
	cl := buildColdTree(t, coldTreeKeys)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // fill the client's free list and the pools
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}
	if cl.rootLevel < 2 {
		t.Fatalf("tree has %d internal levels, want at least 2", cl.rootLevel)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 2: the traversal path and the returned value. Under -race
	// sync.Pool drops a quarter of what it is handed, and a new leaf
	// image is four objects: one more per op on average.
	const maxAllocs = 4
	if avg > maxAllocs {
		t.Fatalf("cold Search allocates %.1f objects/op, want <= %d (a per-node or per-window allocation is back)", avg, maxAllocs)
	}
}

// TestSearchBatchAllocsBounded does the same for the posted-verb state
// machine: ops, their paths, completions and window geometry are all
// recycled, so a batch costs its two result slices and a value per key.
func TestSearchBatchAllocsBounded(t *testing.T) {
	cl := buildColdTree(t, coldTreeKeys)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i*131%coldTreeKeys+1) * 7
	}
	run := func() {
		_, errs := cl.SearchBatch(keys, 8)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("key %d: %v", keys[i], err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	perKey := testing.AllocsPerRun(50, run) / float64(len(keys))
	// Measured 1.03: the value, and two slices per 64 keys; one more
	// under -race, as above.
	const maxPerKey = 3
	if perKey > maxPerKey {
		t.Fatalf("cold SearchBatch allocates %.2f objects/key, want <= %d (a per-key op, completion, path or window allocation is back)", perKey, maxPerKey)
	}
}

func BenchmarkSearchCold(b *testing.B) {
	cl := buildColdTree(b, coldTreeKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Search(uint64(i%coldTreeKeys+1) * 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBatchCold(b *testing.B) {
	cl := buildColdTree(b, coldTreeKeys)
	keys := make([]uint64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(keys) {
		for j := range keys {
			keys[j] = uint64((i+j)%coldTreeKeys+1) * 7
		}
		if _, errs := cl.SearchBatch(keys, 8); errs[0] != nil {
			b.Fatal(errs[0])
		}
	}
}
