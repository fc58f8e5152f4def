package dmsim

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MNs = 0 },
		func(c *Config) { c.MNSize = -1 },
		func(c *Config) { c.BandwidthBps = 0 },
		func(c *Config) { c.IOPS = -5 },
		func(c *Config) { c.BaseRTT = -time.Second },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGAddrPackRoundTrip(t *testing.T) {
	prop := func(mn uint8, off uint64) bool {
		a := GAddr{MN: mn, Off: off & ((1 << 56) - 1)}
		return UnpackGAddr(a.Pack()) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGAddrNil(t *testing.T) {
	if !NilGAddr.IsNil() {
		t.Fatal("NilGAddr must be nil")
	}
	if (GAddr{MN: 0, Off: 64}).IsNil() {
		t.Fatal("non-zero address must not be nil")
	}
	if NilGAddr.String() != "nil" {
		t.Fatalf("nil String() = %q", NilGAddr.String())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	addr := GAddr{Off: 128}
	want := []byte("hello disaggregated memory")
	if err := c.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := c.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestReadOutOfBounds(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	buf := make([]byte, 16)
	if err := c.Read(GAddr{Off: uint64(testConfig().MNSize) - 8}, buf); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if err := c.Read(GAddr{MN: 9, Off: 0}, buf); err == nil {
		t.Fatal("expected unknown-MN error")
	}
}

func TestReadBatchSingleTrip(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	if err := c.Write(GAddr{Off: 64}, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(GAddr{Off: 256}, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	b1, b2 := make([]byte, 4), make([]byte, 4)
	if err := c.ReadBatch([]GAddr{{Off: 64}, {Off: 256}}, [][]byte{b1, b2}); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Trips-before.Trips != 1 {
		t.Fatalf("batch cost %d trips, want 1", after.Trips-before.Trips)
	}
	if after.Reads-before.Reads != 2 {
		t.Fatalf("batch counted %d reads, want 2", after.Reads-before.Reads)
	}
	if string(b1) != "aaaa" || string(b2) != "bbbb" {
		t.Fatalf("batch read %q %q", b1, b2)
	}
}

func TestReadBatchRejectsCrossMN(t *testing.T) {
	cfg := testConfig()
	cfg.MNs = 2
	f := MustNewFabric(cfg)
	c := f.NewClient()
	err := c.ReadBatch(
		[]GAddr{{MN: 0, Off: 64}, {MN: 1, Off: 64}},
		[][]byte{make([]byte, 4), make([]byte, 4)})
	if err == nil {
		t.Fatal("expected cross-MN batch rejection")
	}
}

func TestCASSemantics(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	addr := GAddr{Off: 64}

	prev, ok, err := c.CAS(addr, 0, 42)
	if err != nil || !ok || prev != 0 {
		t.Fatalf("CAS(0->42) = %d, %v, %v", prev, ok, err)
	}
	prev, ok, err = c.CAS(addr, 0, 99)
	if err != nil || ok || prev != 42 {
		t.Fatalf("failed CAS should return prev=42: got %d, %v, %v", prev, ok, err)
	}
}

// TestMaskedCASPiggyback exercises the exact pattern CHIME uses for
// vacancy-bitmap piggybacking: compare only the lock bit, swap the whole
// word, observe the previous word's payload bits.
func TestMaskedCASPiggyback(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	addr := GAddr{Off: 64}

	// Seed: lock free (bit0=0), payload bits set.
	payload := uint64(0xABCD_EF00)
	_, ok, err := c.CAS(addr, 0, payload)
	if err != nil || !ok {
		t.Fatal("seed failed")
	}

	// Acquire: compare lock bit only, swap everything to payload|1.
	prev, ok, err := c.MaskedCAS(addr, 0, payload|1, 0x1, ^uint64(0))
	if err != nil || !ok {
		t.Fatalf("masked acquire failed: %v %v", ok, err)
	}
	if prev != payload {
		t.Fatalf("piggybacked payload = %#x, want %#x", prev, payload)
	}

	// Second acquire must fail (lock bit now 1) but still return word.
	prev, ok, err = c.MaskedCAS(addr, 0, payload|1, 0x1, ^uint64(0))
	if err != nil || ok {
		t.Fatalf("acquire on held lock must fail: %v %v", ok, err)
	}
	if prev != payload|1 {
		t.Fatalf("prev = %#x, want %#x", prev, payload|1)
	}
}

func TestMaskedCASSwapMask(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	addr := GAddr{Off: 64}
	if _, _, err := c.CAS(addr, 0, 0xFF00); err != nil {
		t.Fatal(err)
	}
	// Swap only the low byte.
	_, ok, err := c.MaskedCAS(addr, 0xFF00, 0x00AB, ^uint64(0), 0xFF)
	if err != nil || !ok {
		t.Fatal("masked swap failed")
	}
	got, _, err := c.CAS(addr, 1, 1) // failing CAS used as an atomic read
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xFFAB {
		t.Fatalf("after masked swap word = %#x, want 0xFFAB", got)
	}
}

func TestFetchAdd(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	addr := GAddr{Off: 64}
	for i := uint64(0); i < 5; i++ {
		prev, err := c.FetchAdd(addr, 3)
		if err != nil {
			t.Fatal(err)
		}
		if prev != i*3 {
			t.Fatalf("FetchAdd prev = %d, want %d", prev, i*3)
		}
	}
}

func TestCASAtomicityUnderContention(t *testing.T) {
	f := MustNewFabric(testConfig())
	addr := GAddr{Off: 64}
	const clients, per = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.NewClient()
			for j := 0; j < per; j++ {
				for {
					prev, _, err := c.CAS(addr, 1<<63, 1<<63) // atomic read
					if err != nil {
						t.Error(err)
						return
					}
					if _, ok, _ := c.CAS(addr, prev, prev+1); ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	c := f.NewClient()
	got, _, err := c.CAS(addr, 1<<63, 1<<63)
	if err != nil {
		t.Fatal(err)
	}
	if got != clients*per {
		t.Fatalf("counter = %d, want %d (lost updates)", got, clients*per)
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	if c.Now() != 0 {
		t.Fatal("fresh client clock must start at 0")
	}
	buf := make([]byte, 64)
	if err := c.Read(GAddr{Off: 0}, buf); err != nil {
		t.Fatal(err)
	}
	min := f.Config().BaseRTT.Nanoseconds()
	if c.Now() < min {
		t.Fatalf("clock after READ = %dns, want >= RTT %dns", c.Now(), min)
	}
	before := c.Now()
	c.Advance(1000)
	if c.Now() != before+1000 {
		t.Fatal("Advance must add to clock")
	}
	c.Advance(-5)
	if c.Now() != before+1000 {
		t.Fatal("negative Advance must be ignored")
	}
}

// TestNICBandwidthVsIOPSBound checks the §3.2.3 regime split: large
// transfers are charged by bandwidth, small ones by the IOPS ceiling.
func TestNICBandwidthVsIOPSBound(t *testing.T) {
	cfg := testConfig()
	n := newNIC(cfg)

	perOp := 1e9 / cfg.IOPS
	small := n.serve(0, kindRead, 0, 8)
	if got := float64(small); got < perOp-1 || got > perOp*1.5 {
		t.Fatalf("8B service = %vns, want about per-op %vns", got, perOp)
	}

	bigBytes := 1 << 20
	bwNs := float64(bigBytes) * 1e9 / cfg.BandwidthBps
	start := n.shards[0].freeAt
	done := n.serve(0, kindRead, start, bigBytes)
	if got := float64(done - start); got < bwNs*0.99 || got > bwNs*1.1 {
		t.Fatalf("1MB service = %vns, want about bandwidth %vns", got, bwNs)
	}
}

func TestNICQueueing(t *testing.T) {
	cfg := testConfig()
	n := newNIC(cfg)
	// Two verbs arriving at the same instant must serialize.
	d1 := n.serve(0, kindRead, 0, 1024)
	d2 := n.serve(0, kindRead, 0, 1024)
	if d2 <= d1 {
		t.Fatalf("second verb completed at %d, first at %d: no queueing", d2, d1)
	}
	s := n.stats()
	if s.Verbs != 2 || s.QueuedNs <= 0 {
		t.Fatalf("stats = %+v, want 2 verbs and queueing delay", s)
	}
}

func TestAllocRPCAlignmentAndExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.MNSize = 4096
	f := MustNewFabric(cfg)
	c := f.NewClient()

	a1, err := c.AllocRPC(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Off%64 != 0 || a1.IsNil() {
		t.Fatalf("alloc not aligned or nil: %v", a1)
	}
	a2, err := c.AllocRPC(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Off <= a1.Off {
		t.Fatalf("allocations overlap: %v then %v", a1, a2)
	}
	if _, err := c.AllocRPC(0, 1<<20); err == nil {
		t.Fatal("expected out-of-memory")
	}
	if _, err := c.AllocRPC(5, 64); err == nil {
		t.Fatal("expected unknown-MN error")
	}
	if _, err := c.AllocRPC(0, 0); err == nil {
		t.Fatal("expected bad-size error")
	}
}

func TestChunkAllocatorReusesChunk(t *testing.T) {
	cfg := testConfig()
	cfg.MNSize = 64 << 20
	f := MustNewFabric(cfg)
	c := f.NewClient()
	al := NewChunkAllocator(c, 0)

	a1, err := al.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	rpcsAfterFirst := c.Stats().RPCs
	a2, err := al.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().RPCs != rpcsAfterFirst {
		t.Fatal("second small alloc must come from the cached chunk (no RPC)")
	}
	if a2.Off != a1.Off+1024 {
		t.Fatalf("bump allocation: got %v after %v", a2, a1)
	}
}

func TestChunkAllocatorRoundRobinMNs(t *testing.T) {
	cfg := testConfig()
	cfg.MNs = 3
	cfg.MNSize = 64 << 20
	f := MustNewFabric(cfg)
	c := f.NewClient()
	al := NewChunkAllocator(c, 0)

	seen := map[uint8]bool{}
	for i := 0; i < 3; i++ {
		a, err := al.Alloc(ChunkSize) // force a fresh chunk each time
		if err != nil {
			t.Fatal(err)
		}
		seen[a.MN] = true
	}
	if len(seen) != 3 {
		t.Fatalf("chunks placed on %d MNs, want 3", len(seen))
	}
}

func TestStatsAccounting(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	if err := c.Write(GAddr{Off: 64}, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(GAddr{Off: 64}, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.BytesWritten != 100 || s.BytesRead != 40 || s.Trips != 2 {
		t.Fatalf("stats = %+v", s)
	}
	c.ResetStats()
	if c.Stats() != (ClientStats{}) {
		t.Fatal("ResetStats must zero counters")
	}
	ns := f.TotalNICStats()
	if ns.BytesIn != 100 || ns.BytesOut != 40 {
		t.Fatalf("nic stats = %+v", ns)
	}
}

func TestPeekPoke(t *testing.T) {
	f := MustNewFabric(testConfig())
	if err := f.Poke(GAddr{Off: 64}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := f.Peek(GAddr{Off: 64}, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("peek = %q", got)
	}
	if err := f.Peek(GAddr{MN: 4}, got); err == nil {
		t.Fatal("expected error for unknown MN")
	}
}

func TestFrontierTracksNICBusy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	if f.Frontier() != 0 {
		t.Fatal("fresh fabric frontier must be 0")
	}
	c := f.NewClient()
	if err := c.Write(GAddr{Off: 64}, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if f.Frontier() <= 0 {
		t.Fatal("frontier must advance with NIC busy time")
	}
	// A later client starts at the frontier.
	c2 := f.NewClient()
	if c2.Now() != f.Frontier() {
		t.Fatalf("new client clock %d, frontier %d", c2.Now(), f.Frontier())
	}
}

func TestWriteBatchStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	c := f.NewClient()
	err := c.WriteBatch(
		[]GAddr{{Off: 64}, {Off: 256}},
		[][]byte{make([]byte, 10), make([]byte, 20)},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Writes != 2 || s.Trips != 1 || s.BytesWritten != 30 {
		t.Fatalf("batch stats: %+v", s)
	}
	if err := c.WriteBatch(nil, nil); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
	if err := c.WriteBatch([]GAddr{{Off: 0}}, [][]byte{{1}, {2}}); err == nil {
		t.Fatal("mismatched batch must error")
	}
}

func TestChunkAllocatorOversized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 64 << 20
	cfg.ChunkBytes = 1 << 20
	f := MustNewFabric(cfg)
	c := f.NewClient()
	al := NewChunkAllocator(c, 0)
	// Larger than a chunk: dedicated RPC.
	addr, err := al.Alloc(2 << 20)
	if err != nil || addr.IsNil() {
		t.Fatalf("oversized alloc: %v %v", addr, err)
	}
	if _, err := al.Alloc(-1); err == nil {
		t.Fatal("negative alloc must fail")
	}
}
