package locktable

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chime/internal/dmsim"
)

func fabric() *dmsim.Fabric {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 1 << 20
	return dmsim.MustNewFabric(cfg)
}

func TestUncontendedAcquire(t *testing.T) {
	f := fabric()
	tbl := New()
	dc := f.NewClient()
	if _, handover := tbl.Acquire(dc, 42); handover {
		t.Fatal("first acquire must not be a handover")
	}
	tbl.ReleaseRemote(dc, 42)
	if _, handover := tbl.Acquire(dc, 42); handover {
		t.Fatal("acquire after remote release must not be a handover")
	}
	tbl.ReleaseRemote(dc, 42)
	acq, ho := tbl.Stats()
	if acq != 2 || ho != 0 {
		t.Fatalf("stats = %d/%d", acq, ho)
	}
}

func TestHandoverCarriesWord(t *testing.T) {
	f := fabric()
	tbl := New()
	leader, follower := f.NewClient(), f.NewClient()

	if _, ho := tbl.Acquire(leader, 7); ho {
		t.Fatal("leader must acquire remotely")
	}
	got := make(chan uint64, 1)
	go func() {
		w, ho := tbl.Acquire(follower, 7)
		if !ho {
			got <- 0
			return
		}
		got <- w
	}()
	// Wait until the follower is queued, then hand over.
	for !tbl.HasWaiters(7) {
	}
	leader.Advance(5000)
	if !tbl.ReleaseHandover(leader, 7, 0xDEAD) {
		t.Fatal("handover must succeed with a waiter queued")
	}
	if w := <-got; w != 0xDEAD {
		t.Fatalf("handover word = %#x", w)
	}
	if follower.Now() < leader.Now() {
		t.Fatal("follower clock must reach the releaser's time")
	}
	tbl.ReleaseRemote(follower, 7)
}

func TestReleaseHandoverWithoutWaiters(t *testing.T) {
	f := fabric()
	tbl := New()
	dc := f.NewClient()
	tbl.Acquire(dc, 9)
	if tbl.ReleaseHandover(dc, 9, 1) {
		t.Fatal("handover with no waiters must report false")
	}
	tbl.ReleaseRemote(dc, 9)
}

func TestReleaseRemoteWakesRacingWaiter(t *testing.T) {
	f := fabric()
	tbl := New()
	a, b := f.NewClient(), f.NewClient()
	tbl.Acquire(a, 3)
	res := make(chan bool, 1)
	go func() {
		_, ho := tbl.Acquire(b, 3)
		res <- ho
	}()
	for !tbl.HasWaiters(3) {
	}
	// Releaser chose the remote path (e.g. combined unlock) after the
	// waiter queued: the waiter must be woken to CAS remotely itself.
	tbl.ReleaseRemote(a, 3)
	if ho := <-res; ho {
		t.Fatal("racing waiter must be told to acquire remotely")
	}
	tbl.ReleaseRemote(b, 3)
}

func TestMutualExclusionChain(t *testing.T) {
	f := fabric()
	tbl := New()
	const goroutines, rounds = 8, 100
	var holders atomic.Int64
	var violations atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dc := f.NewClient()
			for i := 0; i < rounds; i++ {
				tbl.Acquire(dc, 1)
				if holders.Add(1) != 1 {
					violations.Add(1)
				}
				dc.Advance(100)
				holders.Add(-1)
				if !tbl.ReleaseHandover(dc, 1, uint64(g)) {
					tbl.ReleaseRemote(dc, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
	// Handovers depend on real-time interleaving and may be rare on a
	// serialized host; mutual exclusion is the invariant under test
	// (deterministic handover coverage lives in TestHandoverCarriesWord).
}

func TestDistinctAddressesIndependent(t *testing.T) {
	f := fabric()
	tbl := New()
	a, b := f.NewClient(), f.NewClient()
	tbl.Acquire(a, 1)
	if _, ho := tbl.Acquire(b, 2); ho {
		t.Fatal("different address must not contend")
	}
	tbl.ReleaseRemote(a, 1)
	tbl.ReleaseRemote(b, 2)
}

// TestAcquireAllocs: the lock table allocates nothing once its map has
// its buckets — not for an uncontended acquire/release, and not per
// waiter for a contended one: held slots live in the map by value and
// the queue links run through the waiting clients.
func TestAcquireAllocs(t *testing.T) {
	f := fabric()
	tbl := New()
	holder := f.NewClient()
	if n := testing.AllocsPerRun(200, func() {
		tbl.Acquire(holder, 42)
		tbl.ReleaseRemote(holder, 42)
	}); n != 0 {
		t.Fatalf("uncontended acquire/release: %.1f allocs, want 0", n)
	}

	// Three waiters queue behind the holder and take the slot in turn,
	// each handing it to the next; the last hands it back to the holder.
	const waiters = 3
	var wg sync.WaitGroup
	turn := make(chan struct{})
	for i := 0; i < waiters; i++ {
		dc := f.NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range turn {
				tbl.Acquire(dc, 42)
				if !tbl.ReleaseHandover(dc, 42, 7) {
					tbl.ReleaseRemote(dc, 42)
				}
			}
		}()
	}
	if n := testing.AllocsPerRun(200, func() {
		tbl.Acquire(holder, 42)
		for i := 0; i < waiters; i++ {
			turn <- struct{}{}
		}
		for tbl.Waiters(42) != waiters {
			runtime.Gosched()
		}
		if !tbl.ReleaseHandover(holder, 42, 7) {
			t.Fatal("handover with waiters queued must succeed")
		}
		// The slot is free again once the last waiter found nobody queued.
		for tbl.held(42) {
			runtime.Gosched()
		}
	}); n != 0 {
		t.Fatalf("contended round of %d waiters: %.1f allocs, want 0", waiters, n)
	}
	close(turn)
	wg.Wait()
}

// held reports whether the slot is taken.
func (t *Table) held(addr uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.m[addr]
	return ok
}
