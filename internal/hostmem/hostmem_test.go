package hostmem

import (
	"bytes"
	"testing"
)

// Both backings keep one contract; the fallback is reached through
// zeroed, the way a host without the mapping reaches it.
func TestRegionContract(t *testing.T) {
	const n = 1<<20 + 192 // not a whole number of pages
	zeroLine := make([]byte, 64)

	for _, bk := range []struct {
		name   string
		tryMap bool
	}{{"mapped", true}, {"heap", false}} {
		t.Run(bk.name, func(t *testing.T) {
			r := zeroed(n, bk.tryMap)
			if bk.tryMap && !r.mapped {
				t.Skip("no anonymous mapping on this host")
			}
			b := r.Bytes()
			if len(b) != n {
				t.Fatalf("len = %d, want %d", len(b), n)
			}
			if !bytes.Equal(b[:64], zeroLine) || !bytes.Equal(b[n-64:], zeroLine) {
				t.Fatalf("fresh region not zero: first line %x, last %x", b[:64], b[n-64:])
			}

			other := zeroed(n, bk.tryMap)
			defer other.Release()
			for i := range b {
				b[i] = 0xA5
			}
			if ob := other.Bytes(); !bytes.Equal(ob[:64], zeroLine) || !bytes.Equal(ob[n/2:n/2+64], zeroLine) || !bytes.Equal(ob[n-64:], zeroLine) {
				t.Fatal("writing one region showed through another")
			}

			r.Reset()
			if &r.Bytes()[0] != &b[0] {
				t.Fatal("Reset moved the region")
			}
			for i, c := range b {
				if c != 0 {
					t.Fatalf("byte %d = %#x after Reset", i, c)
				}
			}
			b[n-1] = 1 // still writable
			r.Release()
			if r.Bytes() != nil {
				t.Fatal("Bytes not nil after Release")
			}
			r.Release()
			r.Reset() // nothing left to reset; must not fault
		})
	}
}

// A region the host could never back is still handed out, and costs
// nothing until written: the property a paper-sized pool depends on.
func TestMappedRegionLargerThanHost(t *testing.T) {
	gib := 1 << 30
	n := 64 * gib // not a constant: a 32-bit int wraps to 0 and the test skips
	b := sysMap(n)
	if b == nil {
		t.Skip("no 64 GiB no-reserve mapping on this host")
	}
	sysUnmap(b)

	r := Zeroed(n)
	defer r.Release()
	p := r.Bytes()
	p[0], p[n-1] = 1, 2
	r.Reset()
	if p[0] != 0 || p[n-1] != 0 {
		t.Fatalf("after Reset: first %d last %d", p[0], p[n-1])
	}
}

// A view aliases the region's bytes, and one that would reach past them
// or sit misaligned panics instead.
func TestView(t *testing.T) {
	type item struct {
		a uint64
		b uint32
	}
	if n := SizeOf[item](); n != 16 {
		t.Fatalf("SizeOf = %d, want 16", n)
	}
	r := Zeroed(64)
	defer r.Release()
	v := View[item](r.Bytes(), 16, 3)
	v[0].a = 0x0102030405060708
	if got := r.Bytes()[16]; got != 0x08 {
		t.Fatalf("byte 16 = %#x after writing the view", got)
	}
	for _, bad := range []struct{ off, n int }{{16, 4}, {4, 1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(off %d, n %d) did not panic", bad.off, bad.n)
				}
			}()
			View[item](r.Bytes(), bad.off, bad.n)
		}()
	}
}
