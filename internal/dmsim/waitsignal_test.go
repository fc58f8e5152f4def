package dmsim

import (
	"sync"
	"testing"
	"time"
)

// The Wait/Signal contract (client.go, eventloop.go): waiting on another
// client is an event on the virtual timeline. These tests hold it to
// clocks, never to throughput, and run under -race at several
// GOMAXPROCS (make race).

// readNs is what one READ of n bytes costs a client on an idle NIC.
func readNs(f *Fabric, n int) int64 {
	cfg := f.Config()
	return cfg.IssueOverhead.Nanoseconds() + f.mns[0].nic.serviceNs(n) + cfg.BaseRTT.Nanoseconds()
}

// within fails the test if fn does not return in time.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: cohort wedged", what)
	}
}

// blocked spins until every given member is blocked in Wait.
func blocked(f *Fabric, ws ...*Client) {
	for _, w := range ws {
		lane := &f.loop.lanes[w.evLane]
		for {
			lane.mu.Lock()
			waiting := w.evWaiting
			lane.mu.Unlock()
			if waiting {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestSuspendResumeFreewheel: clients outside any cohort use the same
// two calls; the signal may come before the wait or after it, and the
// waiter's clock only moves forward.
func TestSuspendResumeFreewheel(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	a, b := f.NewClient(), f.NewClient()

	a.Signal(b, 5_000) // before the Wait: kept
	b.Wait()
	if b.Now() != 5_000 {
		t.Fatalf("b woke at %d, want 5000", b.Now())
	}

	woke := make(chan int64)
	go func() { b.Wait(); woke <- b.Now() }()
	a.Signal(b, 1_000) // in b's past: the clock stays
	if got := <-woke; got != 5_000 {
		t.Fatalf("b woke at %d, want its own 5000", got)
	}
}

// TestSuspendReleasesGate is the regression test for the gap that kept
// two schedulers alive (c_fit 12.04 -> 0.42 Mops with followers that
// left the cohort to wait): a waiter signalled by its lane's baton
// holder wakes at max(its clock, the signal's) INSIDE the signaller's
// window, so its next verb meets the NIC at that time — not behind a
// horizon the signaller built by running on alone.
func TestSuspendReleasesGate(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	a, b := f.NewClient(), f.NewClient()
	a.JoinCohort()
	b.JoinCohort()
	buf := make([]byte, 64)

	var wokeAt, wokeWindow, afterRead int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer b.LeaveCohort()
		b.Sync()
		b.Wait()
		wokeAt, wokeWindow = b.Now(), f.loop.window
		if err := b.Read(GAddr{Off: 128}, buf); err != nil {
			t.Error(err)
		}
		afterRead = b.Now()
	}()

	var sigAt, sigWindow int64
	within(t, "wake inside the window", func() {
		defer a.LeaveCohort()
		// a runs many windows while b waits: b must not hold them back.
		for i := 0; i < 50; i++ {
			if err := a.Read(GAddr{Off: 64}, buf); err != nil {
				t.Error(err)
			}
		}
		blocked(f, b)
		a.Sync() // a fresh window: a's clock is inside it
		sigAt, sigWindow = a.Now(), f.loop.window
		a.Signal(b, sigAt)
		// A lone baton holder keeps running; b's wake-up is already filed.
		for i := 0; i < 200; i++ {
			if err := a.Read(GAddr{Off: 64}, buf); err != nil {
				t.Error(err)
			}
		}
		wg.Wait()
	})
	if sigAt < 50*2000 {
		t.Fatalf("a stalled at %dns while b waited", sigAt)
	}
	if wokeAt != sigAt {
		t.Fatalf("b woke at %d, want the signal's %d", wokeAt, sigAt)
	}
	if wokeWindow != sigWindow {
		t.Fatalf("b woke in window %d, signalled in window %d", wokeWindow, sigWindow)
	}
	// b's read shares the NIC with at most one of a's.
	if max := wokeAt + readNs(f, 64) + f.mns[0].nic.serviceNs(64); afterRead > max {
		t.Fatalf("b's first read after waking ended at %d, want <= %d: charged a gap of %dns",
			afterRead, max, afterRead-max)
	}
}

// A Signal that arrives before its Wait — the waiter has published
// itself but has not blocked — is kept, and the waiter does not block.
func TestSignalBeforeWait(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	a, b := f.NewClient(), f.NewClient()
	a.JoinCohort()
	b.JoinCohort()
	var wg sync.WaitGroup
	wg.Add(2)
	within(t, "signal before wait", func() {
		go func() { // slot 0 runs first: b is parked, not waiting
			defer wg.Done()
			defer a.LeaveCohort()
			a.Sync()
			a.Advance(700)
			a.Signal(b, a.Now())
		}()
		go func() {
			defer wg.Done()
			defer b.LeaveCohort()
			b.Sync()
			b.Wait()
		}()
		wg.Wait()
	})
	if b.Now() != a.Now() {
		t.Fatalf("b woke at %d, want a's %d", b.Now(), a.Now())
	}
}

// A signaller outside the cohort wakes members when nobody is running:
// it has to lead the barrier itself, nobody else will.
func TestFreewheelSignallerLeadsBarrier(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	s := f.NewClient()
	ws := []*Client{f.NewClient(), f.NewClient(), f.NewClient()}
	for _, w := range ws {
		w.JoinCohort()
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *Client) {
			defer wg.Done()
			defer w.LeaveCohort()
			w.Sync()
			w.Wait()
			if err := w.Read(GAddr{Off: 64}, make([]byte, 64)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	within(t, "freewheeling signaller", func() {
		blocked(f, ws...)
		for i, w := range ws {
			s.Signal(w, int64(10_000*(i+1)))
		}
		wg.Wait()
	})
	for i, w := range ws {
		if want := int64(10_000*(i+1)) + readNs(f, 64); w.Now() != want {
			t.Errorf("member %d finished at %d, want %d", i, w.Now(), want)
		}
	}
}

// A member may leave while others wait; what it signals afterwards
// comes from outside the cohort.
func TestLeaveCohortWhileOthersWait(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	a, b := f.NewClient(), f.NewClient()
	a.JoinCohort()
	b.JoinCohort()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer b.LeaveCohort()
		b.Wait()
		if err := b.Read(GAddr{Off: 64}, make([]byte, 64)); err != nil {
			t.Error(err)
		}
	}()
	within(t, "leave while others wait", func() {
		if err := a.Read(GAddr{Off: 64}, make([]byte, 64)); err != nil {
			t.Error(err)
		}
		blocked(f, b)
		a.LeaveCohort()
		a.Signal(b, a.Now())
		wg.Wait()
	})
	if want := a.Now() + readNs(f, 64); b.Now() != want {
		t.Fatalf("b finished at %d, want %d", b.Now(), want)
	}
}

// chain runs n members that each wait for a neighbour, read once and
// signal the next: towards higher slots (each signal finds its waiter
// parked, not yet waiting) or towards lower ones (every waiter blocks
// first). The last clock is n reads past the epoch to the nanosecond:
// a wake-up costs the waiter no virtual time the signal did not carry,
// whether it is filed in the running window (one lane) or at the next
// barrier (across lanes).
func chain(t *testing.T, lanes, n int, up bool) {
	t.Helper()
	f := MustNewFabric(evConfig(lanes))
	cls := make([]*Client, n)
	for i := range cls {
		cls[i] = f.NewClient()
		cls[i].JoinCohort()
	}
	first, last, step := 0, n-1, 1
	if !up {
		first, last, step = n-1, 0, -1
	}
	var wg sync.WaitGroup
	within(t, "chain", func() {
		for i := range cls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := cls[i]
				defer c.LeaveCohort()
				c.Sync()
				if i != first {
					c.Wait()
				}
				if err := c.Read(GAddr{Off: 64}, make([]byte, 64)); err != nil {
					t.Error(err)
				}
				if i != last {
					c.Signal(cls[i+step], c.Now())
				}
			}(i)
		}
		wg.Wait()
	})
	if want := int64(n) * readNs(f, 64); cls[last].Now() != want {
		t.Fatalf("lanes=%d up=%t: chain of %d ended at %d, want %d", lanes, up, n, cls[last].Now(), want)
	}
}

func TestWaitSignalChains(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		for _, up := range []bool{true, false} {
			chain(t, lanes, 1000, up)
		}
	}
}

// Members of different lanes wake each other through the next barrier.
func TestCrossLaneWake(t *testing.T) {
	f := MustNewFabric(evConfig(4))
	const n = 8
	cls := make([]*Client, n)
	for i := range cls {
		cls[i] = f.NewClient()
		cls[i].JoinCohort()
	}
	// Odd members wait for the even member before them, which lives on
	// another lane and signals after ten reads of its own.
	var sigAt [n]int64
	var wg sync.WaitGroup
	within(t, "cross-lane wake", func() {
		for i := range cls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := cls[i]
				defer c.LeaveCohort()
				buf := make([]byte, 64)
				c.Sync()
				if i%2 == 1 {
					c.Wait()
					if c.Now() != sigAt[i-1] {
						t.Errorf("member %d woke at %d, want %d", i, c.Now(), sigAt[i-1])
					}
				}
				for j := 0; j < 10; j++ {
					if err := c.Read(GAddr{Off: uint64(64 * (i + 1))}, buf); err != nil {
						t.Error(err)
					}
				}
				if i%2 == 0 {
					sigAt[i] = c.Now() + 200
					c.Signal(cls[i+1], sigAt[i])
				}
			}(i)
		}
		wg.Wait()
	})
}

// TestGateRejoinAheadDoesNotWidenWindow: a member whose clock jumped far
// ahead — woken by a signal that carries a late time — does not drag
// the window. The laggards march it forward quantum by quantum, and the
// member ahead runs only once the window has reached its clock.
func TestGateRejoinAheadDoesNotWidenWindow(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	quantum := f.loop.quantum
	cls := []*Client{f.NewClient(), f.NewClient(), f.NewClient()}
	for _, c := range cls {
		c.JoinCohort()
	}
	const ahead = int64(50_000)
	var wg sync.WaitGroup
	within(t, "member ahead", func() {
		wg.Add(3)
		go func() {
			defer wg.Done()
			c := cls[2]
			defer c.LeaveCohort()
			c.Sync()
			c.Wait()
			c.Sync()
			if c.Now() != ahead || f.loop.window <= ahead {
				t.Errorf("member ahead runs at clock %d in window %d, want clock %d inside the window", c.Now(), f.loop.window, ahead)
			}
		}()
		for m := 0; m < 2; m++ {
			go func(m int) {
				defer wg.Done()
				c := cls[m]
				defer c.LeaveCohort()
				c.Sync()
				if m == 0 {
					c.Signal(cls[2], ahead)
				}
				for c.Now() < ahead+2*quantum {
					c.Sync()
					if w := f.loop.window; w > c.Now()+quantum {
						t.Errorf("laggard at %d runs in window %d: wider than one quantum", c.Now(), w)
						return
					}
					c.Advance(quantum / 2)
				}
			}(m)
		}
		wg.Wait()
	})
}

// TestGateDirect drives the window contract without verbs: two members
// that each advance one quantum per sync stay in lockstep, so the window
// ends one quantum past their last clock, not far beyond it.
func TestGateDirect(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	quantum := f.loop.quantum
	a, b := f.NewClient(), f.NewClient()
	a.JoinCohort()
	b.JoinCohort()
	var wg sync.WaitGroup
	for _, c := range []*Client{a, b} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			defer c.LeaveCohort()
			for j := 0; j < 100; j++ {
				c.Sync()
				c.Advance(quantum)
			}
		}(c)
	}
	wg.Wait()
	if w := f.loop.window; w != 100*quantum {
		t.Fatalf("window ran to %d, want %d (lockstep)", w, 100*quantum)
	}
}

// TestGateLeaveReleasesLoneSurvivor: two members, one parked at the
// window edge, and the other leaves mid-window. The survivor must be
// released — the leaver leads the barrier — and a later two-member
// cohort on the same fabric is in lockstep again: one member cannot
// advance the window alone.
func TestGateLeaveReleasesLoneSurvivor(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	a, b := f.NewClient(), f.NewClient()
	a.JoinCohort()
	b.JoinCohort()

	released := make(chan struct{})
	go func() {
		a.Sync()
		a.Advance(5 * f.loop.quantum) // far past the window edge
		a.Sync()
		close(released)
	}()
	b.Sync()
	// Wait until a is parked at the edge (not merely staged).
	for {
		lane := &f.loop.lanes[0]
		lane.mu.Lock()
		parked := lane.cal.Len() == 1
		lane.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.LeaveCohort()
	select {
	case <-released:
	case <-time.After(20 * time.Second):
		t.Fatal("lone survivor deadlocked in Sync after the other member left")
	}
	a.LeaveCohort()

	// A new two-member cohort: one member's first Sync must block until
	// the other has parked or left.
	a.JoinCohort()
	b.JoinCohort()
	window := f.loop.window
	synced := make(chan struct{})
	go func() { a.Sync(); close(synced) }()
	select {
	case <-synced:
		t.Fatal("a single member advanced the window alone")
	case <-time.After(50 * time.Millisecond):
	}
	f.loop.mu.Lock()
	moved := f.loop.window != window
	f.loop.mu.Unlock()
	if moved {
		t.Fatalf("window moved from %d with one of two members parked", window)
	}
	b.LeaveCohort()
	<-synced
	a.LeaveCohort()
}

// A Wait/Signal round trip allocates nothing, in a cohort (through the
// calendar, barriers included) or outside one (through the token).
func TestWaitSignalZeroAllocs(t *testing.T) {
	f := MustNewFabric(evConfig(1))
	a, b := f.NewClient(), f.NewClient()
	if n := testing.AllocsPerRun(1000, func() {
		a.Signal(b, b.Now()+10)
		b.Wait()
	}); n != 0 {
		t.Fatalf("freewheeling round trip allocates %v, want 0", n)
	}

	a.JoinCohort()
	b.JoinCohort()
	stop := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer b.LeaveCohort()
		b.Sync()
		for {
			b.Wait()
			if stop {
				return
			}
			b.Signal(a, b.Now()+700) // every third hop crosses a window edge
		}
	}()
	a.Sync()
	if n := testing.AllocsPerRun(1000, func() {
		a.Signal(b, a.Now()+700)
		a.Wait()
	}); n != 0 {
		t.Fatalf("cohort round trip allocates %v, want 0", n)
	}
	stop = true
	a.Signal(b, a.Now())
	a.LeaveCohort()
	<-done
}
