package dmsim

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"chime/internal/hostmem"
)

// Where a pool's bytes come from (internal/hostmem): what a fabric costs
// the host is what its verbs touched, and Close, KillMN and the bounds
// check behave the same on memory the Go heap does not own.

// residentPages reads the process's resident set, in pages.
func residentPages(t *testing.T) int64 {
	t.Helper()
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skip("no /proc/self/statm on this host")
	}
	fields := strings.Fields(string(blob))
	if len(fields) < 2 {
		t.Fatalf("statm: %q", blob)
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		t.Fatalf("statm: %q", blob)
	}
	return n
}

// A fabric four times the paper's pool, sixteen times this host: built
// at once, and every verb shape works at both ends of it.
func TestPaperSizedPoolCostsNothingUntilTouched(t *testing.T) {
	if !hostmem.Mapped || strconv.IntSize < 64 {
		t.Skip("pools are Go slices in this build: 256 GiB of them will not fit")
	}
	if mode, _ := os.ReadFile("/proc/sys/vm/overcommit_memory"); strings.TrimSpace(string(mode)) == "2" {
		t.Skip("strict overcommit: the host refuses mappings it cannot back")
	}
	gib := 1 << 30
	cfg := DefaultConfig()
	cfg.MNs, cfg.MNSize = 4, 64*gib

	before := residentPages(t)
	start := time.Now()
	f := MustNewFabric(cfg)
	built := time.Since(start)
	defer f.Close()
	if built > 50*time.Millisecond {
		t.Errorf("4 x 64 GiB fabric took %v to build, want < 50ms", built)
	}

	c := f.NewClient()
	a, err := c.AllocRPC(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	last := GAddr{MN: 3, Off: uint64(cfg.MNSize) - 128} // the pool's last two lines
	for _, at := range []GAddr{a, last} {
		msg := []byte("far end of a paper-sized pool")
		if err := c.Write(at, msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := c.Read(at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("read %q at %v, wrote %q", got, at, msg)
		}
		word := at.Add(64)
		if old, ok, err := c.CAS(word, 0, 7); err != nil || !ok || old != 0 {
			t.Fatalf("CAS(%v, 0, 7) = %d, %v, %v on untouched memory", word, old, ok, err)
		}
		if old, err := c.FetchAdd(word, 1); err != nil || old != 7 {
			t.Fatalf("FetchAdd(%v) = %d, %v after the CAS", word, old, err)
		}
	}
	if err := c.Read(GAddr{MN: 3, Off: uint64(cfg.MNSize) - 8}, make([]byte, 16)); err == nil {
		t.Error("a read past the pool's end succeeded")
	}
	if grew := (residentPages(t) - before) * int64(os.Getpagesize()); grew > 64<<20 {
		t.Errorf("resident set grew %d MB for four touched pages", grew>>20)
	}
}

// After Close there are no bytes left to address: every verb fails the
// bounds check every out-of-range verb fails, and none of them faults.
func TestVerbAfterCloseFailsInBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	c := f.NewClient()
	a, err := c.AllocRPC(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(a, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // idempotent

	buf := make([]byte, 8)
	for how, err := range map[string]error{
		"Read":      c.Read(a, buf),
		"Write":     c.Write(a, buf),
		"ReadBatch": c.ReadBatch([]GAddr{a}, [][]byte{buf}),
		"CAS":       third(c.CAS(a, 0, 1)),
		"FetchAdd":  second(c.FetchAdd(a, 1)),
		"AllocRPC":  second(c.AllocRPC(0, 64)),
		"Peek":      f.Peek(a, buf),
		"Poke":      f.Poke(a, buf),
	} {
		if err == nil {
			t.Errorf("%s on a closed fabric succeeded", how)
		}
	}
}

func second[T any](_ T, err error) error        { return err }
func third[T, U any](_ T, _ U, err error) error { return err }

// A crash-stop forgets the pool without writing it: memory reads zero,
// the resident set does not grow by the pool's size (the byte loop this
// replaced made every page of it resident), and the restart brings back
// exactly what the log names.
func TestKillMNForgetsWithoutTouching(t *testing.T) {
	const pool = 512 << 20
	cfg := persistCfg(t)
	cfg.MNSize = pool
	f := MustNewFabric(cfg)
	defer f.Close()
	c := f.NewClient()

	msg := []byte("acked before the crash")
	spots := []GAddr{{Off: 4096}, {Off: pool / 2}, {Off: pool - 4096}}
	for _, at := range spots {
		if err := c.Write(at, msg); err != nil {
			t.Fatal(err)
		}
	}

	before := residentPages(t)
	if err := f.KillMN(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	for _, at := range spots {
		if err := f.Peek(at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(msg))) {
			t.Fatalf("MN memory at %v survived the crash: %q", at, got)
		}
	}
	if _, err := f.RestartMN(0); err != nil {
		t.Fatal(err)
	}
	for _, at := range spots {
		if err := c.Read(at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("after restart %v reads %q, want %q", at, got, msg)
		}
	}
	if grew := (residentPages(t) - before) * int64(os.Getpagesize()); hostmem.Mapped && grew > pool/4 {
		t.Errorf("kill + restart of a %d MB pool grew the resident set by %d MB", pool>>20, grew>>20)
	}
}
