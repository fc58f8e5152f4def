// Package hopscotch implements hopscotch hashing (Herlihy, Shavit,
// Tzafrir, DISC '08): the collision-resolution scheme CHIME uses for its
// leaf nodes. Every key lives within a fixed-size neighborhood of its
// home slot, so a reader fetches exactly H consecutive entries, and a
// per-slot bitmap tracks which neighborhood slots hold keys homed there.
//
// The package exposes the hop-planning algorithm separately from any
// storage (Plan), so both the local Table here and CHIME's remote,
// byte-encoded leaf nodes share one implementation of the subtle part.
// It also contains the load-factor laboratory comparing hopscotch with
// the associative, RACE and FaRM schemes from Figure 3d of the paper.
package hopscotch

import (
	"errors"
	"fmt"
)

// Move is one hop: the key at From moves to the empty slot at To.
// Indexes are slot positions in the table (already wrapped).
type Move struct {
	From, To int
}

// ErrFull reports that no empty slot could be hopped into the
// neighborhood; the caller must resize (or, in CHIME, split the leaf).
var ErrFull = errors.New("hopscotch: no feasible hop")

// Plan computes the hop sequence that frees a slot inside the
// neighborhood [home, home+H) of a circular table with n slots.
//
// occupied(i) reports whether slot i holds a key; homeOf(i) returns the
// home slot of the key at occupied slot i. Plan returns the moves in
// execution order, the final free slot (guaranteed within the
// neighborhood of home), and ErrFull when the table cannot absorb the
// key.
//
// The algorithm is the classic one from §2.3 of the CHIME paper: linear
// probe for the first empty slot, then repeatedly swap the farthest
// eligible predecessor into the empty slot until the hole reaches the
// neighborhood.
func Plan(n, h, home int, occupied func(int) bool, homeOf func(int) int) ([]Move, int, error) {
	return AppendPlan(nil, n, h, home, occupied, homeOf)
}

// AppendPlan is Plan appending the moves to dst, for a caller that
// reuses their storage. On error it returns dst as it was.
func AppendPlan(dst []Move, n, h, home int, occupied func(int) bool, homeOf func(int) int) ([]Move, int, error) {
	if n <= 0 || h <= 0 || h > n {
		return dst, 0, fmt.Errorf("hopscotch: bad geometry n=%d h=%d", n, h)
	}
	if home < 0 || home >= n {
		return dst, 0, fmt.Errorf("hopscotch: home %d out of [0,%d)", home, n)
	}

	// dist is the forward circular distance from a to b.
	dist := func(a, b int) int { return ((b-a)%n + n) % n }

	// Linear probe for the first empty slot at or after home.
	empty := -1
	for d := 0; d < n; d++ {
		i := (home + d) % n
		if !occupied(i) {
			empty = i
			break
		}
	}
	if empty == -1 {
		return dst, 0, ErrFull
	}

	moves := dst
	for dist(home, empty) >= h {
		// Search the H-1 slots before empty for the farthest key (i.e.
		// the one earliest in the window) that may legally move into
		// empty: its home must be within H behind empty.
		moved := false
		for back := h - 1; back >= 1; back-- {
			j := (empty - back + n) % n
			if !occupied(j) {
				// A hole inside the window: jump the hole backward.
				empty = j
				moved = true
				break
			}
			if dist(homeOf(j), empty) < h {
				moves = append(moves, Move{From: j, To: empty})
				empty = j
				moved = true
				break
			}
		}
		if !moved {
			return dst, 0, ErrFull
		}
	}
	return moves, empty, nil
}

// HopRange returns the smallest circular slot interval [start, start+len)
// touched by the whole hopping process: the home neighborhood plus every
// move endpoint. CHIME reads and writes back exactly this range (§4.1.2).
func HopRange(n, h, home int, moves []Move, finalFree int) (start, length int) {
	dist := func(a, b int) int { return ((b-a)%n + n) % n }
	// All touched slots lie at some forward distance from home.
	maxd := h - 1
	if d := dist(home, finalFree); d > maxd {
		maxd = d
	}
	for _, m := range moves {
		if d := dist(home, m.From); d > maxd {
			maxd = d
		}
		if d := dist(home, m.To); d > maxd {
			maxd = d
		}
	}
	if maxd >= n {
		maxd = n - 1
	}
	return home, maxd + 1
}

// Table is an in-memory hopscotch hash table with uint64 keys and
// values. It is the reference implementation used by tests and the
// load-factor experiments; the remote leaf-node encoding in
// internal/core reuses Plan but stores entries in remote memory.
// Not safe for concurrent use.
type Table struct {
	h       int
	slots   []slot
	bitmaps []uint32 // bit d set: slot (i+d)%n holds a key homed at i
	size    int
	hash    func(uint64) int
}

type slot struct {
	occupied bool
	key      uint64
	val      uint64
	home     int
}

// NewTable creates a table with n slots and neighborhood size h.
func NewTable(n, h int) (*Table, error) {
	if n <= 0 || h <= 0 || h > n || h > 32 {
		return nil, fmt.Errorf("hopscotch: bad geometry n=%d h=%d", n, h)
	}
	t := &Table{h: h, slots: make([]slot, n), bitmaps: make([]uint32, n)}
	t.hash = func(k uint64) int { return int(defaultHash(k) % uint64(n)) }
	return t, nil
}

// Hash is the 64-bit mixer used to pick home slots. It is exported so
// that the remote leaf-node encoding in internal/core homes keys exactly
// like the local Table.
func Hash(k uint64) uint64 { return defaultHash(k) }

func defaultHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	return k ^ (k >> 33)
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// Cap returns the number of slots.
func (t *Table) Cap() int { return len(t.slots) }

// H returns the neighborhood size.
func (t *Table) H() int { return t.h }

// LoadFactor returns size/capacity.
func (t *Table) LoadFactor() float64 { return float64(t.size) / float64(len(t.slots)) }

// Get looks the key up, scanning only its H-slot neighborhood.
func (t *Table) Get(key uint64) (uint64, bool) {
	home := t.hash(key)
	n := len(t.slots)
	bm := t.bitmaps[home]
	for d := 0; d < t.h; d++ {
		if bm&(1<<uint(d)) == 0 {
			continue
		}
		s := &t.slots[(home+d)%n]
		if s.occupied && s.key == key {
			return s.val, true
		}
	}
	return 0, false
}

// Put inserts or updates a key. It returns ErrFull when no hop sequence
// can make room; the caller should resize.
func (t *Table) Put(key, val uint64) error {
	home := t.hash(key)
	n := len(t.slots)

	// Update in place if present.
	for d := 0; d < t.h; d++ {
		s := &t.slots[(home+d)%n]
		if s.occupied && s.key == key {
			s.val = val
			return nil
		}
	}

	moves, free, err := Plan(n, t.h,
		home,
		func(i int) bool { return t.slots[i].occupied },
		func(i int) int { return t.slots[i].home },
	)
	if err != nil {
		return err
	}
	for _, m := range moves {
		t.applyMove(m)
	}
	t.place(free, home, key, val)
	t.size++
	return nil
}

func (t *Table) applyMove(m Move) {
	n := len(t.slots)
	s := t.slots[m.From]
	dOld := ((m.From-s.home)%n + n) % n
	dNew := ((m.To-s.home)%n + n) % n
	t.bitmaps[s.home] &^= 1 << uint(dOld)
	t.bitmaps[s.home] |= 1 << uint(dNew)
	t.slots[m.To] = s
	t.slots[m.From] = slot{}
}

func (t *Table) place(at, home int, key, val uint64) {
	n := len(t.slots)
	d := ((at-home)%n + n) % n
	t.slots[at] = slot{occupied: true, key: key, val: val, home: home}
	t.bitmaps[home] |= 1 << uint(d)
}

// Delete removes a key, reporting whether it was present.
func (t *Table) Delete(key uint64) bool {
	home := t.hash(key)
	n := len(t.slots)
	for d := 0; d < t.h; d++ {
		i := (home + d) % n
		s := &t.slots[i]
		if s.occupied && s.key == key {
			t.bitmaps[home] &^= 1 << uint(d)
			*s = slot{}
			t.size--
			return true
		}
	}
	return false
}

// CheckInvariants verifies the hopscotch structural invariants; tests
// call it after mutation sequences.
func (t *Table) CheckInvariants() error {
	n := len(t.slots)
	count := 0
	for i, s := range t.slots {
		if !s.occupied {
			continue
		}
		count++
		d := ((i-s.home)%n + n) % n
		if d >= t.h {
			return fmt.Errorf("key %#x at slot %d is %d past home %d (H=%d)", s.key, i, d, s.home, t.h)
		}
		if t.bitmaps[s.home]&(1<<uint(d)) == 0 {
			return fmt.Errorf("bitmap of home %d misses key %#x at +%d", s.home, s.key, d)
		}
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d occupied slots", t.size, count)
	}
	for home, bm := range t.bitmaps {
		for d := 0; d < t.h; d++ {
			if bm&(1<<uint(d)) == 0 {
				continue
			}
			s := t.slots[(home+d)%n]
			if !s.occupied || s.home != home {
				return fmt.Errorf("bitmap of home %d claims +%d but slot disagrees", home, d)
			}
		}
	}
	return nil
}
