package nodelayout

import (
	"math/rand"
	"testing"
)

// refCheckVersions is CheckVersions as first written: each cell's
// version offsets listed through VersionOffsets, then compared. It stays
// as the reference the one-pass check is pinned against.
func refCheckVersions(win []byte, winOff int, cells []Cell) error {
	first := true
	var nv uint8
	var offs [16]int
	for _, c := range cells {
		vo := c.VersionOffsets(offs[:0])
		b0 := win[vo[0]-winOff]
		if first {
			nv = VerNV(b0)
			first = false
		} else if VerNV(b0) != nv {
			return ErrTornRead
		}
		for _, o := range vo[1:] {
			if win[o-winOff] != b0 {
				return ErrTornRead
			}
		}
	}
	return nil
}

// tornImage lays cells of random sizes out from start — small cells and
// big ones of up to 70 lines — gives them consistent versions and then
// tears up to three of them the ways a racing writer can: a node write
// caught between cells, an entry write caught between the lines of a
// big cell, or a version byte that is anything at all.
func tornImage(rng *rand.Rand, start int) ([]byte, []Cell) {
	contents := make([]int, 1+rng.Intn(20))
	for i := range contents {
		switch rng.Intn(4) {
		case 0:
			contents[i] = 64 + rng.Intn(70*63-64)
		case 1:
			contents[i] = 63
		default:
			contents[i] = 1 + rng.Intn(62)
		}
	}
	cells, size := LayoutCells(start, contents)
	img := make([]byte, start+size)
	for i := 0; i < rng.Intn(16); i++ {
		BumpNV(img, cells)
	}
	for _, c := range cells {
		for i := 0; i < rng.Intn(3); i++ {
			BumpEV(img, c)
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		c := cells[rng.Intn(len(cells))]
		offs := c.VersionOffsets(nil)
		switch rng.Intn(3) {
		case 0:
			BumpNV(img, []Cell{c})
		case 1:
			o := offs[rng.Intn(len(offs))]
			img[o] = PackVer(VerNV(img[o]), VerEV(img[o])+1)
		default:
			img[offs[rng.Intn(len(offs))]] = byte(rng.Intn(256))
		}
	}
	return img, cells
}

// TestCheckVersionsMatchesReference: on random torn windows — any run of
// cells, seen through a window that begins anywhere at or before the
// first of them — CheckVersions gives the reference's verdict, and
// CheckVersionsNV, given the NV of the image's first version byte, the
// reference's on the run with that one byte prepended as a cell.
func TestCheckVersionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	torn := 0
	for iter := 0; iter < 5000; iter++ {
		img, cells := tornImage(rng, rng.Intn(3)*LineSize+rng.Intn(2)*17)
		i := rng.Intn(len(cells))
		j := i + 1 + rng.Intn(len(cells)-i)
		sub := cells[i:j]
		winOff := sub[0].Off - rng.Intn(sub[0].Off+1)
		win := img[winOff:sub[len(sub)-1].End()]
		want := refCheckVersions(win, winOff, sub)
		if got := CheckVersions(win, winOff, sub); got != want {
			t.Fatalf("iter %d: cells %+v window at %d: CheckVersions %v, reference %v", iter, sub, winOff, got, want)
		}
		if want != nil {
			torn++
		}
		nv := VerNV(img[cells[0].Off])
		withFirst := append([]Cell{{Off: cells[0].Off, Content: 1}}, sub...)
		want = refCheckVersions(img, 0, withFirst)
		if got := CheckVersionsNV(img, 0, sub, nv); got != want {
			t.Fatalf("iter %d: cells %+v against NV %d: CheckVersionsNV %v, reference %v", iter, sub, nv, got, want)
		}
	}
	if torn < 500 || torn > 4500 {
		t.Fatalf("%d of 5000 windows torn: the generator no longer exercises both verdicts", torn)
	}
	if err := CheckVersions(nil, 0, nil); err != nil {
		t.Fatalf("no cells: %v", err)
	}
}

// TestVersionKernelsAllocateNothing: a check or a bump of cells far
// wider than 16 lines allocates nothing (listing the version offsets of
// a 66-line cell took three allocations).
func TestVersionKernelsAllocateNothing(t *testing.T) {
	cells, size := LayoutCells(LineSize, []int{17, 4107, 4107, 17})
	img := make([]byte, LineSize+size)
	if avg := testing.AllocsPerRun(100, func() {
		BumpNV(img, cells)
		BumpEV(img, cells[1])
		if CheckVersions(img, 0, cells) != nil {
			t.Fatal("consistent cells rejected")
		}
	}); avg != 0 {
		t.Fatalf("bump and check of 66-line cells: %.1f allocations, want 0", avg)
	}
}
