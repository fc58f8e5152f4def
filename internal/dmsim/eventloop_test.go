package dmsim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func evConfig(lanes int) Config {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	cfg.Lanes = lanes
	return cfg
}

// runEvCohort drives a deterministic mixed-verb workload (disjoint
// 64-byte slots per client, so lanes never race on remote lines) and
// returns a fingerprint of everything observable: per-client clocks and
// stats plus the aggregate NIC counters.
type evFingerprint struct {
	clocks []int64
	stats  []ClientStats
	nic    NICStats
}

func runEvCohort(t *testing.T, cfg Config, clients, ops int) evFingerprint {
	t.Helper()
	f := MustNewFabric(cfg)
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
			for j := 0; j < ops; j++ {
				switch (i + j) % 3 {
				case 0:
					if err := c.Read(addr, buf); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := c.Write(addr, buf); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, _, err := c.CAS(addr, 0, uint64(j)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	fp := evFingerprint{nic: f.TotalNICStats()}
	for _, c := range cls {
		fp.clocks = append(fp.clocks, c.Now())
		fp.stats = append(fp.stats, c.Stats())
	}
	return fp
}

// TestEventLoopCohortOverlapsVirtualTime is TestCohortOverlapsVirtualTime
// on one lane and on four: cohort members must share virtual time, not
// serialize behind each other.
func TestEventLoopCohortOverlapsVirtualTime(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		fp := runEvCohort(t, evConfig(lanes), 8, 200)
		perOp := int64(2400)
		for i, now := range fp.clocks {
			if now > 200*perOp*3 {
				t.Errorf("lanes=%d client %d clock %dns: cohort not overlapping", lanes, i, now)
			}
		}
	}
}

// TestEventLoopDeterministicAcrossRunsAndProcs pins the headline
// guarantee: same seed (here, same workload), same lane count →
// bit-identical client clocks, client stats, and NIC counters,
// regardless of GOMAXPROCS or host scheduling.
func TestEventLoopDeterministicAcrossRunsAndProcs(t *testing.T) {
	cfg := evConfig(4)
	base := runEvCohort(t, cfg, 12, 150)
	for trial := 0; trial < 3; trial++ {
		procs := 1 + trial%3
		prev := runtime.GOMAXPROCS(procs)
		got := runEvCohort(t, cfg, 12, 150)
		runtime.GOMAXPROCS(prev)
		if got.nic != base.nic {
			t.Fatalf("GOMAXPROCS=%d: NIC stats %+v != %+v", procs, got.nic, base.nic)
		}
		for i := range base.clocks {
			if got.clocks[i] != base.clocks[i] {
				t.Fatalf("GOMAXPROCS=%d: client %d clock %d != %d", procs, i, got.clocks[i], base.clocks[i])
			}
			if got.stats[i] != base.stats[i] {
				t.Fatalf("GOMAXPROCS=%d: client %d stats %+v != %+v", procs, i, got.stats[i], base.stats[i])
			}
		}
	}
}

// TestEventLoopSuspendResume: a member waiting on another client must
// not stall the cohort, and one woken far ahead of it must neither
// widen the window nor run its clock backward.
func TestEventLoopSuspendResume(t *testing.T) {
	f := MustNewFabric(evConfig(2))
	a, b := f.NewClient(), f.NewClient()
	a.JoinCohort()
	b.JoinCohort()

	done := make(chan struct{})
	var bErr error
	var wokeAt int64
	go func() {
		defer close(done)
		defer b.LeaveCohort()
		b.Wait()
		wokeAt = b.Now()
		bErr = b.Read(GAddr{Off: 128}, make([]byte, 64))
	}()

	// a runs many windows alone while b waits, then wakes b 1 ms ahead of
	// itself and keeps going: b's verb must wait for the window to reach
	// its clock, not pull the window there.
	buf := make([]byte, 64)
	var sigAt int64
	for i := 0; i < 600; i++ {
		if i == 300 {
			sigAt = a.Now() + 1_000_000
			a.Signal(b, sigAt)
		}
		if err := a.Read(GAddr{Off: 64}, buf); err != nil {
			t.Fatal(err)
		}
	}
	if a.Now() < 600*2000 || a.Now() > sigAt {
		t.Fatalf("a finished at %dns: stalled by the waiter, or dragged to its wake time %d", a.Now(), sigAt)
	}
	a.LeaveCohort()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cohort wedged on wait/signal")
	}
	if bErr != nil {
		t.Fatal(bErr)
	}
	if wokeAt != sigAt {
		t.Fatalf("b woke at %d, want the signal's %d", wokeAt, sigAt)
	}
}

// churn drives members that leave and rejoin the cohort mid-flight.
func churn(t *testing.T, lanes int) {
	f := MustNewFabric(evConfig(lanes))
	const members = 6
	var wg sync.WaitGroup
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			c := f.NewClient()
			c.JoinCohort()
			addr := GAddr{Off: uint64(64 * (m + 1))}
			buf := make([]byte, 64)
			for j := 0; j < 200; j++ {
				if err := c.Read(addr, buf); err != nil {
					t.Error(err)
					break
				}
				if j%50 == 25 {
					c.LeaveCohort()
					c.Advance(10_000)
					c.JoinCohort()
				}
			}
			c.LeaveCohort()
		}(m)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cohort wedged under join/leave churn")
	}
}

// Members joining and leaving mid-flight must never wedge the cohort,
// on one lane or on several.
func TestGateJoinLeaveChurn(t *testing.T)      { churn(t, 1) }
func TestEventLoopJoinLeaveChurn(t *testing.T) { churn(t, 3) }

// TestShardedNICStatsAggregate pins the ResetStats/obs interaction on
// the sharded path (ISSUE 6 satellite): client stats reset per window
// while NIC counters keep aggregating consistently across shards —
// totals equal the sum of per-MN snapshots, and bytes match what the
// clients actually moved after their reset.
func TestShardedNICStatsAggregate(t *testing.T) {
	cfg := evConfig(4)
	cfg.MNs = 2
	f := MustNewFabric(cfg)
	const clients, warm, ops = 8, 50, 100
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
			addr := GAddr{MN: uint8(i % cfg.MNs), Off: uint64(64 * (i + 1))}
			buf := make([]byte, 64)
			for j := 0; j < warm; j++ {
				if err := c.Write(addr, buf); err != nil {
					t.Error(err)
					return
				}
			}
			c.ResetStats()
			for j := 0; j < ops; j++ {
				if err := c.Write(addr, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	var perMN NICStats
	for mn := 0; mn < cfg.MNs; mn++ {
		s := f.NICStatsFor(mn)
		perMN.Verbs += s.Verbs
		perMN.BytesIn += s.BytesIn
		perMN.BytesOut += s.BytesOut
		perMN.QueuedNs += s.QueuedNs
		perMN.ServedNs += s.ServedNs
	}
	if total := f.TotalNICStats(); total != perMN {
		t.Fatalf("TotalNICStats %+v != sum of per-MN snapshots %+v", total, perMN)
	}
	// NIC counters are fabric-lifetime: they must cover warmup AND the
	// measured window even though client stats were reset in between.
	if want := int64(clients * (warm + ops)); perMN.Verbs != want {
		t.Fatalf("NIC verbs %d, want %d across shards", perMN.Verbs, want)
	}
	if want := int64(clients * (warm + ops) * 64); perMN.BytesIn != want {
		t.Fatalf("NIC bytesIn %d, want %d across shards", perMN.BytesIn, want)
	}
	// Client stats cover only the post-reset window.
	for i, c := range cls {
		s := c.Stats()
		if s.Writes != ops || s.BytesWritten != ops*64 {
			t.Fatalf("client %d post-reset stats %+v, want %d writes", i, s, ops)
		}
	}
}
