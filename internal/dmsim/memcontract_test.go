package dmsim

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The MN memory contract (fabric.go): no verb ever tears inside a
// 64-byte-aligned line, and a multi-line read that overlaps a writer may
// still tear between lines.

// A region that starts and ends mid-line, so every transfer has partial
// lines at both ends as well as whole ones between them, and that lies
// across a page boundary of the pool's mapping (8192), so the contract
// is exercised where two pages fault in separately.
const (
	contractOff   = 2*4096 - 1000 // 24 bytes into its line
	contractLines = 32
	contractSize  = contractLines * 64

	// Where the batch verbs cut the region in two: on a line boundary,
	// since the segments of a batch are separate transfers.
	contractCut = contractSize/2 + 64 - contractOff%64
)

// copyOutPerLine is copyOut as it was before the read fast path: every
// line under its stripe lock. The fast path is checked against it.
func copyOutPerLine(m *memoryNode, off uint64, buf []byte) {
	for len(buf) > 0 {
		n := int((off | 63) + 1 - off)
		if n > len(buf) {
			n = len(buf)
		}
		lk := m.casLock(off)
		lk.Lock()
		copy(buf[:n], m.mem[off:off+uint64(n)])
		lk.Unlock()
		buf = buf[n:]
		off += uint64(n)
	}
}

// lineTears checks one read of the contract region: every aligned line
// (or the part of it the region covers) must carry one generation byte.
// It returns how many distinct generations the read saw across lines.
func lineTears(t *testing.T, how string, buf []byte) int {
	t.Helper()
	seen := map[byte]bool{}
	off := uint64(contractOff)
	for len(buf) > 0 {
		n := int((off | 63) + 1 - off)
		if n > len(buf) {
			n = len(buf)
		}
		line := buf[:n]
		if !bytes.Equal(line, bytes.Repeat(line[:1], n)) {
			t.Errorf("%s: line at offset %d torn inside: %x", how, off, line)
		}
		seen[line[0]] = true
		buf, off = buf[n:], off+uint64(n)
	}
	return len(seen)
}

// TestMNReadLineAtomicity stamps the region with one generation byte per
// write through every write verb while every read verb reads it back.
// Writers pause until a few reads have gone by, so some reads start with
// no writer announced (the fast path, which a writer then has to wait
// out) and some start under one (the per-line path).
func TestMNReadLineAtomicity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	region := GAddr{Off: contractOff}
	halves := []GAddr{region, region.Add(contractCut)}
	if err := f.Poke(region, make([]byte, contractSize)); err != nil {
		t.Fatal(err)
	}

	writers := []func(c *Client, data []byte) error{
		func(c *Client, data []byte) error { return c.Write(region, data) },
		func(c *Client, data []byte) error {
			return c.WriteBatch(halves, [][]byte{data[:contractCut], data[contractCut:]})
		},
		func(c *Client, data []byte) error {
			_, _, err := f.ExecOffload(0, nil, func(x *MNCtx) { x.Write(region, data) })
			return err
		},
	}
	readers := []struct {
		how  string
		read func(c *Client, buf []byte) error
	}{
		{"Read", func(c *Client, buf []byte) error { return c.Read(region, buf) }},
		{"ReadBatch", func(c *Client, buf []byte) error {
			return c.ReadBatch(halves, [][]byte{buf[:contractCut], buf[contractCut:]})
		}},
		{"MNCtx.Read", func(c *Client, buf []byte) error {
			_, _, err := f.ExecOffload(0, nil, func(x *MNCtx) { x.Read(region, buf) })
			return err
		}},
	}

	const minReads = 3000
	var (
		reads, tears atomic.Int64
		stop         atomic.Bool
		wg           sync.WaitGroup
	)
	for w, write := range writers {
		wg.Add(1)
		go func(w int, write func(*Client, []byte) error) {
			defer wg.Done()
			c := f.NewClient()
			data := make([]byte, contractSize)
			for gen := byte(w); !stop.Load(); gen += byte(len(writers)) {
				for i := range data {
					data[i] = gen
				}
				if err := write(c, data); err != nil {
					t.Error(err)
					return
				}
				for until := reads.Load() + 2; reads.Load() < until && !stop.Load(); {
					runtime.Gosched()
				}
			}
		}(w, write)
	}
	for _, r := range readers {
		wg.Add(1)
		go func(how string, read func(*Client, []byte) error) {
			defer wg.Done()
			c := f.NewClient()
			buf := make([]byte, contractSize)
			for !stop.Load() && !t.Failed() {
				if err := read(c, buf); err != nil {
					t.Error(err)
					return
				}
				if lineTears(t, how, buf) > 1 {
					tears.Add(1)
				}
				reads.Add(1)
			}
		}(r.how, r.read)
	}

	// With two Ps a reader and a writer really overlap, and a tear
	// between lines has to show up: the fast path must not have made
	// reads node-atomic. On one P overlap is up to the scheduler.
	wantTear := runtime.GOMAXPROCS(0) >= 2
	deadline := time.Now().Add(20 * time.Second)
	for reads.Load() < minReads || (wantTear && tears.Load() == 0) {
		if t.Failed() || time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if reads.Load() < minReads {
		t.Fatalf("only %d reads completed", reads.Load())
	}
	if wantTear && tears.Load() == 0 {
		t.Fatalf("%d multi-line reads under concurrent writers and none tore between lines", reads.Load())
	}
	t.Logf("%d reads, %d torn between lines", reads.Load(), tears.Load())
}

// TestCopyOutMatchesPerLineLoop is the differential test: on quiescent
// memory the fast path, the fallback a reader takes under an announced
// writer, and the old per-line loop return the same bytes for any
// offset and length.
func TestCopyOutMatchesPerLineLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 16
	f := MustNewFabric(cfg)
	m := f.mns[0]
	rng := rand.New(rand.NewSource(14))
	rng.Read(m.mem)

	check := func(path string) {
		for i := 0; i < 2000; i++ {
			n := rng.Intn(3000)
			off := uint64(rng.Intn(len(m.mem) - n))
			got, want := make([]byte, n), make([]byte, n)
			m.copyOut(int32(i), off, got)
			copyOutPerLine(m, off, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: copyOut(%d, %d bytes) differs from the per-line loop", path, off, n)
			}
		}
		if r := m.readers.Load(); r != 0 {
			t.Fatalf("%s: %d readers still announced", path, r)
		}
	}
	check("fast path")
	m.beginWrite()
	check("under a writer")
	m.endWrite()
	if w := m.writers.Load(); w != 0 {
		t.Fatalf("%d writers still announced", w)
	}
}

// TestWordStripesCoverTheWord pins the lock set of an atomic verb: one
// stripe for a word inside a line, both lines' stripes — ascending, also
// across the wrap of the stripe table — for a word that straddles.
func TestWordStripesCoverTheWord(t *testing.T) {
	for _, c := range []struct {
		off  uint64
		want []uint64
	}{
		{0, []uint64{0}},
		{56, []uint64{0}},
		{57, []uint64{0, 1}},
		{64*5 + 60, []uint64{5, 6}},
		{64*255 + 60, []uint64{0, 255}},
		{64*256 + 8, []uint64{0}},
	} {
		s, n := wordStripes(c.off)
		if got := s[:n]; !slices.Equal(got, c.want) {
			t.Errorf("wordStripes(%d) = %v, want %v", c.off, got, c.want)
		}
	}
}

// TestStraddlingAtomicVsWrite races an atomic on a word that straddles
// two lines against writes to the second of them (ROLEX's unaligned
// group lock word next to an entry write-back). Under -race this fails
// if the atomic holds only its first line's stripe.
func TestStraddlingAtomicVsWrite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 16
	f := MustNewFabric(cfg)
	word := GAddr{Off: 4096 - 4} // last line of one page, first of the next
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := f.NewClient()
		for i := 0; i < 2000; i++ {
			if _, err := c.FetchAdd(word, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := f.NewClient()
		data := make([]byte, 32)
		for i := 0; i < 2000; i++ {
			if err := c.Write(GAddr{Off: 4096}, data); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestWriterNotStarvedByReaders keeps the read fast path saturated from
// several goroutines and requires a writer to get through regardless.
func TestWriterNotStarvedByReaders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	region := GAddr{Off: contractOff}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.NewClient()
			buf := make([]byte, contractSize)
			for !stop.Load() {
				if err := c.Read(region, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := f.NewClient()
		data := make([]byte, contractSize)
		for i := 0; i < 500; i++ {
			if err := c.Write(region, data); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("500 writes did not finish under continuous readers")
	}
	stop.Store(true)
	wg.Wait()
	<-done
}

// BenchmarkReadNode is one READ of a CHIME internal node at the default
// options (1,472 bytes, 23 lines): the verb every level of a cold
// descent pays.
func BenchmarkReadNode(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		c := f.NewClient()
		buf := make([]byte, 1472)
		for pb.Next() {
			if err := c.Read(GAddr{Off: 4096}, buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
