package dmsim

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// testKVProg is a minimal MN-side program over a fixed-slot KV table:
// `slots` 16-byte slots of [8B key][8B value] at `base`, keys sorted
// ascending, key 0 meaning empty. It exists to exercise the offload
// plumbing, not to model an index. Slot probes use a stack buffer so
// the verb path stays allocation-free.
type testKVProg struct {
	base  GAddr
	slots int
}

const kvSlotBytes = 16

func (p *testKVProg) slot(i int) GAddr { return p.base.Add(uint64(i * kvSlotBytes)) }

func (p *testKVProg) find(ctx *MNCtx, key uint64) (int, OffloadStatus) {
	var b [kvSlotBytes]byte
	for i := 0; i < p.slots; i++ {
		if !ctx.Read(p.slot(i), b[:]) {
			return -1, OffloadCrossMN
		}
		if binary.LittleEndian.Uint64(b[:8]) == key {
			return i, OffloadOK
		}
	}
	return -1, OffloadNotFound
}

func (p *testKVProg) Search(ctx *MNCtx, key, arg uint64) OffloadStatus {
	var b [kvSlotBytes]byte
	for i := 0; i < p.slots; i++ {
		if !ctx.Read(p.slot(i), b[:]) {
			return OffloadCrossMN
		}
		if binary.LittleEndian.Uint64(b[:8]) == key {
			if !ctx.Emit(b[8:]) {
				return OffloadRetry
			}
			return OffloadOK
		}
	}
	return OffloadNotFound
}

func (p *testKVProg) Update(ctx *MNCtx, key, arg uint64, val []byte) OffloadStatus {
	if len(val) != 8 {
		return OffloadUnsupported
	}
	i, st := p.find(ctx, key)
	if st != OffloadOK {
		return st
	}
	if !ctx.Write(p.slot(i).Add(8), val) {
		return OffloadCrossMN
	}
	return OffloadOK
}

func (p *testKVProg) Scan(ctx *MNCtx, start, arg uint64, limit int) OffloadStatus {
	var b [kvSlotBytes]byte
	emitted := 0
	for i := 0; i < p.slots && emitted < limit; i++ {
		if !ctx.Read(p.slot(i), b[:]) {
			return OffloadCrossMN
		}
		k := binary.LittleEndian.Uint64(b[:8])
		if k == 0 || k < start {
			continue
		}
		if !ctx.Emit(b[:]) {
			return OffloadOK // buffer full: return what fits
		}
		emitted++
	}
	return OffloadOK
}

// crossMNProg always reaches off its MN: every verdict is a fallback.
type crossMNProg struct{}

func (crossMNProg) Search(ctx *MNCtx, key, arg uint64) OffloadStatus {
	var b [8]byte
	if !ctx.Read(GAddr{MN: uint8(ctx.MN() + 1)}, b[:]) {
		return OffloadCrossMN
	}
	return OffloadOK
}
func (crossMNProg) Update(ctx *MNCtx, key, arg uint64, val []byte) OffloadStatus {
	return OffloadUnsupported
}
func (crossMNProg) Scan(ctx *MNCtx, start, arg uint64, limit int) OffloadStatus {
	return OffloadUnsupported
}

// buildKVTable writes `n` sorted entries (key 100i+100 -> value
// 1000i+1000) through a freewheeling client and returns the program.
func buildKVTable(t testing.TB, f *Fabric, n int) *testKVProg {
	t.Helper()
	c := f.NewClient()
	p := &testKVProg{base: GAddr{Off: 4096}, slots: n}
	var b [kvSlotBytes]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:8], uint64(100*(i+1)))
		binary.LittleEndian.PutUint64(b[8:], uint64(1000*(i+1)))
		if err := c.Write(p.slot(i), b[:]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestExecOffloadMetering(t *testing.T) {
	f := MustNewFabric(testConfig())
	dst := make([]byte, 64)
	n, touched, err := f.ExecOffload(0, dst, func(ctx *MNCtx) {
		buf := make([]byte, 64)
		if !ctx.Read(GAddr{Off: 128}, buf) {
			t.Error("local read refused")
		}
		if !ctx.Write(GAddr{Off: 256}, buf[:32]) {
			t.Error("local write refused")
		}
		if _, _, ok := ctx.CAS(GAddr{Off: 512}, 0, 7); !ok {
			t.Error("local CAS refused")
		}
		if !ctx.Emit(buf[:8]) {
			t.Error("emit refused")
		}
		if ctx.Read(GAddr{MN: 3}, buf) {
			t.Error("cross-MN read must refuse")
		}
		if ctx.Write(GAddr{Off: uint64(testConfig().MNSize) - 4}, buf) {
			t.Error("out-of-bounds write must refuse")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("emitted %d bytes, want 8", n)
	}
	// 64 read + 32 written + 8 CAS + 8 emitted; refused accesses free.
	if touched != 112 {
		t.Errorf("touched %d bytes, want 112", touched)
	}
	if _, _, err := f.ExecOffload(9, dst, func(*MNCtx) {}); err == nil {
		t.Error("ExecOffload on absent MN must error")
	}
}

func TestOffloadSearchRoundTrip(t *testing.T) {
	f := MustNewFabric(testConfig())
	p := buildKVTable(t, f, 8)
	id := f.RegisterMNProgram(p)

	c := f.NewClient()
	start := c.Now()
	dst := make([]byte, 8)
	n, st, err := c.LeafSearchAtMN(id, 0, 300, 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	if st != OffloadOK || n != 8 {
		t.Fatalf("search: n=%d st=%v, want 8, ok", n, st)
	}
	if got := binary.LittleEndian.Uint64(dst); got != 3000 {
		t.Fatalf("search value %d, want 3000", got)
	}
	// One round trip plus MN CPU service: strictly more than a bare RTT,
	// and exactly one Trip.
	cfg := testConfig()
	elapsed := c.Now() - start
	if min := cfg.BaseRTT.Nanoseconds(); elapsed <= min {
		t.Errorf("offload cost %dns, want > bare RTT %dns", elapsed, min)
	}
	s := c.Stats()
	if s.Trips != 1 || s.Offloads != 1 || s.RPCs != 1 {
		t.Errorf("stats %+v: want exactly one trip/offload/rpc", s)
	}
	if s.BytesRead != offHeaderBytes+8 || s.BytesWritten != offHeaderBytes {
		t.Errorf("bytes %d/%d, want resp %d req %d",
			s.BytesRead, s.BytesWritten, offHeaderBytes+8, offHeaderBytes)
	}

	if _, st, err = c.LeafSearchAtMN(id, 0, 12345, 0, dst); err != nil || st != OffloadNotFound {
		t.Fatalf("missing key: st=%v err=%v, want notfound", st, err)
	}
	if st.Fallback() {
		t.Error("NotFound must be definitive, not a fallback")
	}

	mn := f.MNCPUStatsFor(0)
	if mn.Ops != 2 || mn.Fallbacks != 0 {
		t.Errorf("MN CPU stats %+v, want 2 ops, 0 fallbacks", mn)
	}
	if mn.BusyNs <= 0 {
		t.Error("MN CPU consumed no service time")
	}
}

func TestOffloadUpdateAndScan(t *testing.T) {
	f := MustNewFabric(testConfig())
	p := buildKVTable(t, f, 8)
	id := f.RegisterMNProgram(p)
	c := f.NewClient()

	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, 777)
	st, err := c.CompareAndCASAtMN(id, 0, 200, 0, val)
	if err != nil || st != OffloadOK {
		t.Fatalf("update: st=%v err=%v", st, err)
	}
	// Visible to a one-sided READ of the same slot.
	raw := make([]byte, 8)
	if err := c.Read(p.slot(1).Add(8), raw); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(raw); got != 777 {
		t.Fatalf("one-sided read after offloaded update: %d, want 777", got)
	}
	if st, err = c.CompareAndCASAtMN(id, 0, 4242, 0, val); err != nil || st != OffloadNotFound {
		t.Fatalf("update of absent key: st=%v err=%v", st, err)
	}

	// Scan from key 300: entries 300..600, limited to 3 records.
	dst := make([]byte, 1024)
	n, st, err := c.ScatterGatherScan(id, 0, 300, 0, 3, dst)
	if err != nil || st != OffloadOK {
		t.Fatalf("scan: st=%v err=%v", st, err)
	}
	if n != 3*kvSlotBytes {
		t.Fatalf("scan emitted %d bytes, want %d", n, 3*kvSlotBytes)
	}
	for i := 0; i < 3; i++ {
		rec := dst[i*kvSlotBytes:]
		k := binary.LittleEndian.Uint64(rec[:8])
		if want := uint64(300 + 100*i); k != want {
			t.Errorf("scan record %d key %d, want %d", i, k, want)
		}
	}
}

func TestOffloadFallbackCounted(t *testing.T) {
	f := MustNewFabric(testConfig())
	id := f.RegisterMNProgram(crossMNProg{})
	c := f.NewClient()
	_, st, err := c.LeafSearchAtMN(id, 0, 1, 0, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if st != OffloadCrossMN || !st.Fallback() {
		t.Fatalf("st=%v Fallback=%v, want crossmn fallback", st, st.Fallback())
	}
	if st, err = c.CompareAndCASAtMN(id, 0, 1, 0, make([]byte, 8)); err != nil || st != OffloadUnsupported {
		t.Fatalf("unsupported update: st=%v err=%v", st, err)
	}
	mn := f.MNCPUStatsFor(0)
	if mn.Ops != 2 || mn.Fallbacks != 2 {
		t.Errorf("MN CPU stats %+v, want 2 ops both fallbacks", mn)
	}
}

func TestOffloadUnregisteredProgram(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	if _, _, err := c.LeafSearchAtMN(0, 0, 1, 0, nil); err == nil {
		t.Error("program id 0 must error")
	}
	if _, _, err := c.LeafSearchAtMN(7, 0, 1, 0, nil); err == nil {
		t.Error("unknown program id must error")
	}
	id := f.RegisterMNProgram(&testKVProg{base: GAddr{Off: 4096}, slots: 1})
	if _, _, err := c.LeafSearchAtMN(id, 5, 1, 0, nil); err == nil {
		t.Error("absent MN must error")
	}
}

// TestOffloadQueueing pins the bounded-CPU property: offloads posted
// faster than the MN cores drain them must queue, and the queueing is
// visible in both the stats and the fabric frontier.
func TestOffloadQueueing(t *testing.T) {
	cfg := testConfig()
	p := &testKVProg{base: GAddr{Off: 4096}, slots: 1}
	f := MustNewFabric(cfg)
	buildKVTable(t, f, 1)
	id := f.RegisterMNProgram(p)
	c := f.NewClient()

	const depth = 32
	hs := make([]*Completion, depth)
	dsts := make([][]byte, depth)
	for i := range hs {
		dsts[i] = make([]byte, 8)
		h, err := c.PostLeafSearchAtMN(id, 0, 100, 0, dsts[i])
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	for _, h := range hs {
		c.Poll(h)
		if n, st := h.OffloadResult(); st != OffloadOK || n != 8 {
			t.Fatalf("pipelined search: n=%d st=%v", n, st)
		}
		c.Release(h)
	}
	mn := f.MNCPUStatsFor(0)
	if mn.Ops != depth {
		t.Fatalf("MN ops %d, want %d", mn.Ops, depth)
	}
	// Posting every issueNs (200 ns) into >=600 ns service must queue.
	if mn.QueuedNs <= 0 {
		t.Error("back-to-back offloads did not queue at the MN CPU")
	}
	if fr := f.Frontier(); fr < mn.BusyNs {
		t.Errorf("frontier %d < MN CPU busy %d: CPU horizon not in frontier", fr, mn.BusyNs)
	}
	if tot := f.TotalMNCPUStats(); tot != mn {
		t.Errorf("TotalMNCPUStats %+v != per-MN %+v with one MN", tot, mn)
	}
}

// offloadFingerprint runs a gated cohort mixing one-sided verbs with
// all three offload verbs and fingerprints everything observable.
type offloadFingerprint struct {
	clocks []int64
	stats  []ClientStats
	nic    NICStats
	mncpu  MNCPUStats
}

func runOffloadCohort(t *testing.T, cfg Config, clients, ops int) offloadFingerprint {
	t.Helper()
	f := MustNewFabric(cfg)
	p := buildKVTable(t, f, 16)
	id := f.RegisterMNProgram(p)
	cls := make([]*Client, clients)
	for i := range cls {
		cls[i] = f.NewClient()
		cls[i].JoinCohort()
	}
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cls[i]
			defer c.LeaveCohort()
			addr := GAddr{Off: uint64(64 * (i + 1))}
			buf := make([]byte, 64)
			dst := make([]byte, 256)
			val := make([]byte, 8)
			for j := 0; j < ops; j++ {
				key := uint64(100 * ((i+j)%16 + 1))
				var err error
				switch (i + j) % 5 {
				case 0:
					err = c.Read(addr, buf)
				case 1:
					err = c.Write(addr, buf)
				case 2:
					_, _, err = c.LeafSearchAtMN(id, 0, key, 0, dst)
				case 3:
					binary.LittleEndian.PutUint64(val, uint64(i*ops+j))
					_, err = c.CompareAndCASAtMN(id, 0, key, 0, val)
				default:
					_, _, err = c.ScatterGatherScan(id, 0, key, 0, 4, dst)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	fp := offloadFingerprint{nic: f.TotalNICStats(), mncpu: f.TotalMNCPUStats()}
	for _, c := range cls {
		fp.clocks = append(fp.clocks, c.Now())
		fp.stats = append(fp.stats, c.Stats())
	}
	return fp
}

func sameOffloadFP(t *testing.T, label string, a, b offloadFingerprint) {
	t.Helper()
	if a.nic != b.nic {
		t.Fatalf("%s: NIC stats %+v != %+v", label, a.nic, b.nic)
	}
	if a.mncpu != b.mncpu {
		t.Fatalf("%s: MN CPU stats %+v != %+v", label, a.mncpu, b.mncpu)
	}
	for i := range a.clocks {
		if a.clocks[i] != b.clocks[i] {
			t.Fatalf("%s: client %d clock %d != %d", label, i, a.clocks[i], b.clocks[i])
		}
		if a.stats[i] != b.stats[i] {
			t.Fatalf("%s: client %d stats %+v != %+v", label, i, a.stats[i], b.stats[i])
		}
	}
}

// TestOffloadDeterministicAcrossProcs pins the determinism claim at the
// dmsim layer for an offload-heavy cohort: every client clock, every
// counter and the NIC and MN-CPU totals are bit-identical across reruns,
// for one client and for eight, at one lane and at four, regardless of
// GOMAXPROCS.
func TestOffloadDeterministicAcrossProcs(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		for _, clients := range []int{1, 8} {
			cfg := evConfig(lanes)
			base := runOffloadCohort(t, cfg, clients, 60)
			for trial := 0; trial < 3; trial++ {
				prev := runtime.GOMAXPROCS(1 + trial)
				got := runOffloadCohort(t, cfg, clients, 60)
				runtime.GOMAXPROCS(prev)
				sameOffloadFP(t, fmt.Sprintf("rerun, %d lanes, %d clients", lanes, clients), base, got)
			}
		}
	}
}

// TestOffloadRoundTripZeroAllocs extends the PR 6 invariant to the
// offload verb path: steady-state offload issue/poll allocates nothing.
func TestOffloadRoundTripZeroAllocs(t *testing.T) {
	cfg := testConfig()
	f := MustNewFabric(cfg)
	p := buildKVTable(t, f, 4)
	id := f.RegisterMNProgram(p)
	c := f.NewClient()
	dst := make([]byte, 8)
	val := make([]byte, 8)

	if n := testing.AllocsPerRun(1000, func() {
		if _, st, err := c.LeafSearchAtMN(id, 0, 200, 0, dst); err != nil || st != OffloadOK {
			t.Fatalf("st=%v err=%v", st, err)
		}
	}); n != 0 {
		t.Fatalf("offloaded search allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if st, err := c.CompareAndCASAtMN(id, 0, 200, 0, val); err != nil || st != OffloadOK {
			t.Fatalf("st=%v err=%v", st, err)
		}
	}); n != 0 {
		t.Fatalf("offloaded update allocates %v per op, want 0", n)
	}
}

// BenchmarkOffloadRoundTrip measures the offload verb hot path on the
// event-loop scheduler (the ISSUE 7 satellite guard).
func BenchmarkOffloadRoundTrip(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	p := buildKVTable(b, f, 4)
	id := f.RegisterMNProgram(p)
	c := f.NewClient()
	dst := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := c.LeafSearchAtMN(id, 0, 200, 0, dst); err != nil || st != OffloadOK {
			b.Fatalf("st=%v err=%v", st, err)
		}
	}
}
