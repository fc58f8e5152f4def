// Package nodelayout provides the byte-level node layout machinery
// shared by every remote index in this repository: cell placement around
// 64-byte cache-line boundaries and the two-level cache-line versions of
// CHIME §4.1.1 (which Sherman also uses, after the paper's correction of
// its original bookend versioning).
//
// A node image is a flat byte region carved into "Cells" (header, each
// entry, each metadata replica). Every cell carries version bytes:
//
//   - a cell whose content fits in one 64-byte line (content <= 63
//     bytes) is placed so it never crosses a line boundary and carries a
//     single leading version byte;
//   - a larger cell is line-aligned and carries one version byte at the
//     start of every line it occupies, content packed into the remaining
//     63 bytes per line (the "1-byte version per 63 bytes of data"
//     overhead the paper reports).
//
// Each version byte packs a 4-bit node-level version NV (high nibble)
// and a 4-bit entry-level version EV (low nibble). A node write
// increments NV in every version byte of the node; an entry write
// increments EV only in the cell's own version bytes. A reader accepts a
// fetched window only if all NVs in it match and, within each cell, all
// version bytes are identical. The dmsim fabric copies 64-byte-aligned
// lines atomically (PCIe TLP atomicity), so a version byte is always
// consistent with the rest of its line.
package nodelayout

import (
	"errors"
	"slices"
)

// LineSize is the cache-line granularity of version placement.
const LineSize = 64

// PackVer packs node-level and entry-level version nibbles.
func PackVer(nv, ev uint8) byte { return byte(nv&0xF)<<4 | byte(ev&0xF) }

// VerNV extracts the node-level version nibble.
func VerNV(b byte) uint8 { return uint8(b >> 4) }

// VerEV extracts the entry-level version nibble.
func VerEV(b byte) uint8 { return uint8(b & 0xF) }

// Cell describes one versioned region inside a node image.
type Cell struct {
	Off     int // byte offset of the first version byte
	Content int // content bytes (excluding version bytes)
	Big     bool
	Lines   int // big cells: number of 64-byte lines occupied
}

// Physical returns the cell's total footprint in the image.
func (c Cell) Physical() int {
	if c.Big {
		return c.Lines * LineSize
	}
	return 1 + c.Content
}

// End returns the byte offset just past the cell.
func (c Cell) End() int { return c.Off + c.Physical() }

// VersionOffsets appends the image offsets of the cell's version bytes.
func (c Cell) VersionOffsets(dst []int) []int {
	if !c.Big {
		return append(dst, c.Off)
	}
	for l := 0; l < c.Lines; l++ {
		dst = append(dst, c.Off+l*LineSize)
	}
	return dst
}

// LayoutCells places cells with the given content sizes sequentially
// from byte offset start, respecting the line-crossing rule, and returns
// the cells plus the total region size.
func LayoutCells(start int, contents []int) ([]Cell, int) {
	cells := make([]Cell, len(contents))
	cur := start
	for i, c := range contents {
		if c <= LineSize-1 {
			phys := 1 + c
			if cur%LineSize+phys > LineSize {
				cur += LineSize - cur%LineSize // pad to next line
			}
			cells[i] = Cell{Off: cur, Content: c}
			cur += phys
		} else {
			if cur%LineSize != 0 {
				cur += LineSize - cur%LineSize
			}
			lines := (c + LineSize - 2) / (LineSize - 1) // ceil(c/63)
			cells[i] = Cell{Off: cur, Content: c, Big: true, Lines: lines}
			cur += lines * LineSize
		}
	}
	return cells, cur - start
}

// ContentAt maps content offset off of the cell to its image offset and
// the number of content bytes that follow contiguously (to the end of
// the cell's content, or of its 64-byte line for a big cell). It is the
// one place the in-place accessors below learn the content geometry. off
// must lie inside the content: anything else is a caller bug, and panics
// here rather than spinning the gather loops on an empty run.
//
//chime:noalloc
func (c Cell) ContentAt(off int) (imgOff, run int) {
	if off < 0 || off >= c.Content {
		panic("nodelayout: content offset outside the cell")
	}
	if !c.Big {
		return c.Off + 1 + off, c.Content - off
	}
	line, in := off/(LineSize-1), off%(LineSize-1)
	run = LineSize - 1 - in
	if rest := c.Content - off; rest < run {
		run = rest
	}
	return c.Off + line*LineSize + 1 + in, run
}

// ReadCellContentAt gathers len(dst) content bytes starting at content
// offset off into dst, without allocating. A range that stays inside
// one line needs no gather at all: ContentAt gives the image offset to
// slice directly.
//
//chime:noalloc
func ReadCellContentAt(img []byte, c Cell, off int, dst []byte) {
	for len(dst) > 0 {
		o, run := c.ContentAt(off)
		n := copy(dst, img[o:o+run])
		dst, off = dst[n:], off+n
	}
}

// WriteCellContentAt scatters src into the cell's content starting at
// content offset off, around the version bytes. src may alias the
// target bytes (an entry re-encoded from its own in-place decode).
//
//chime:noalloc
func WriteCellContentAt(img []byte, c Cell, off int, src []byte) {
	for len(src) > 0 {
		o, run := c.ContentAt(off)
		n := copy(img[o:o+run], src)
		src, off = src[n:], off+n
	}
}

// ZeroCellContentAt clears n content bytes starting at content offset
// off (the padding an in-place encode must not inherit from the bytes
// it overwrites).
//
//chime:noalloc
func ZeroCellContentAt(img []byte, c Cell, off, n int) {
	for n > 0 {
		o, run := c.ContentAt(off)
		if run > n {
			run = n
		}
		clear(img[o : o+run])
		off, n = off+run, n-run
	}
}

// BumpNV increments the node-level version in every version byte of the
// given cells (a node write).
func BumpNV(img []byte, cells []Cell) {
	for _, c := range cells {
		for o := c.Off; o < c.End(); o += LineSize {
			img[o] = PackVer(VerNV(img[o])+1, VerEV(img[o]))
		}
	}
}

// BumpEV increments the entry-level version in one cell's version bytes
// (an entry write).
func BumpEV(img []byte, c Cell) {
	for o := c.Off; o < c.End(); o += LineSize {
		img[o] = PackVer(VerNV(img[o]), VerEV(img[o])+1)
	}
}

// ErrTornRead is returned when version validation fails: the reader
// raced a concurrent write and must retry.
var ErrTornRead = errors.New("nodelayout: torn read (version mismatch)")

// CheckVersions validates a fetched window: every version byte of every
// given cell must carry the same NV, and within each cell all version
// bytes must be identical (same NV and EV). Cell offsets are image
// offsets; winOff is the image offset where the window begins.
//
//chime:noalloc
func CheckVersions(win []byte, winOff int, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	return CheckVersionsNV(win, winOff, cells, VerNV(win[cells[0].Off-winOff]))
}

// CheckVersionsNV is CheckVersions against a given NV: a window fetched
// as several ranges checks the cells of each against the NV of the
// first. A cell's version bytes are the bytes at Off, Off+LineSize, ...
// up to its end — one for a cell that fits a line, which is most of
// them, and nothing to compare it to but nv.
//
//chime:noalloc
func CheckVersionsNV(win []byte, winOff int, cells []Cell, nv uint8) error {
	for i := range cells {
		c := &cells[i]
		b0 := win[c.Off-winOff]
		if VerNV(b0) != nv {
			return ErrTornRead
		}
		if c.Big {
			for o := c.Off + LineSize - winOff; o < c.End()-winOff; o += LineSize {
				if win[o] != b0 {
					return ErrTornRead
				}
			}
		}
	}
	return nil
}

// SplitPoint returns where a full node holding the sorted keys splits
// to make room for pending, which is not among them: keys[:at] stay,
// keys[at:] move to the new right sibling. It is the one split-point
// rule of the B-trees in this repository, leaves and internal nodes.
//
// A split is the median, at len(keys)/2, unless pending continues an
// ascending run: it sorts directly after every key of the node, or
// directly after prev — the key the splitting client last placed at this
// level (havePrev false when it has placed none). A run never comes back
// to what it leaves behind, so it leaves more behind: the split is at
// pending's rank, held to [n/2, 3n/4]. Three quarters of a full node is
// about the fill a randomly loaded B-tree converges to (ln 2), so a
// sorted load builds the tree a shuffled one builds instead of the
// half-empty worst case. Other clients' keys above the run (a loader's
// chunk ending where the next one began) do not hide it from the second
// signal, and other clients' keys inside it (interleaved ascending
// inserters) do not hide it from the first.
//
// A client that has placed a key is only believed when that key is in
// the node. One random insert in n+1 sorts after every key of its node;
// its client's previous key is in that node once in a tree's worth of
// leaves, so a random load splits at the median as if the rule were not
// there.
//
// For len(keys) >= 2 both sides are non-empty. run reports whether the
// split was taken as a run's (the obs.RunSplits count).
func SplitPoint(keys []uint64, pending, prev uint64, havePrev bool) (at int, run bool) {
	n := len(keys)
	rank, _ := slices.BinarySearch(keys, pending)
	run = rank == n
	if havePrev {
		prevAt, resident := slices.BinarySearch(keys, prev)
		run = resident && (run || prevAt == rank-1)
	}
	if !run {
		return n / 2, false
	}
	return min(max(rank, n/2), 3*n/4), true
}

// Placed is one client's memory of the key it last placed at each level
// of its tree (level 0: the last key it inserted into a leaf; level l:
// the last pivot it put into a level-l node): SplitPoint's prev.
type Placed struct{ at []placedKey }

type placedKey struct {
	key uint64
	ok  bool
}

// Note records key as the last one placed at level.
func (p *Placed) Note(level uint8, key uint64) {
	for int(level) >= len(p.at) {
		p.at = append(p.at, placedKey{})
	}
	p.at[level] = placedKey{key, true}
}

// At returns the key last placed at level, if any.
func (p *Placed) At(level uint8) (key uint64, ok bool) {
	if int(level) >= len(p.at) {
		return 0, false
	}
	return p.at[level].key, p.at[level].ok
}
