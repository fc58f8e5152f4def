package core

// The byte-level layout machinery (cell placement and two-level
// cache-line versions, §4.1.1) lives in internal/nodelayout so the
// Sherman and ROLEX baselines share the exact same implementation. The
// aliases below keep the core package's call sites terse.

import "chime/internal/nodelayout"

const lineSize = nodelayout.LineSize

type cell = nodelayout.Cell

var errTornRead = nodelayout.ErrTornRead

func packVer(nv, ev uint8) byte { return nodelayout.PackVer(nv, ev) }
func verNV(b byte) uint8        { return nodelayout.VerNV(b) }
func verEV(b byte) uint8        { return nodelayout.VerEV(b) }

func layoutCells(start int, contents []int) ([]cell, int) {
	return nodelayout.LayoutCells(start, contents)
}

func readCellContentAt(img []byte, c cell, off int, dst []byte) {
	nodelayout.ReadCellContentAt(img, c, off, dst)
}

func writeCellContentAt(img []byte, c cell, off int, src []byte) {
	nodelayout.WriteCellContentAt(img, c, off, src)
}

func zeroCellContentAt(img []byte, c cell, off, n int) {
	nodelayout.ZeroCellContentAt(img, c, off, n)
}

func bumpNV(img []byte, cells []cell) { nodelayout.BumpNV(img, cells) }
func bumpEV(img []byte, c cell)       { nodelayout.BumpEV(img, c) }

func checkVersions(win []byte, winOff int, cells []cell) error {
	return nodelayout.CheckVersions(win, winOff, cells)
}

func checkVersionsNV(win []byte, winOff int, cells []cell, nv uint8) error {
	return nodelayout.CheckVersionsNV(win, winOff, cells, nv)
}
