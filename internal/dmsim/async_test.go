package dmsim

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestPostPollEquivalentToSync pins the virtual-clock contract: a posted
// verb polled immediately lands the clock exactly where the synchronous
// verb does.
func TestPostPollEquivalentToSync(t *testing.T) {
	cfg := testConfig()
	fSync := MustNewFabric(cfg)
	fAsync := MustNewFabric(cfg)
	cs, ca := fSync.NewClient(), fAsync.NewClient()

	buf := make([]byte, 256)
	if err := cs.Read(GAddr{Off: 64}, buf); err != nil {
		t.Fatal(err)
	}
	h, err := ca.PostRead(GAddr{Off: 64}, buf)
	if err != nil {
		t.Fatal(err)
	}
	ca.Poll(h)
	if cs.Now() != ca.Now() {
		t.Fatalf("sync clock %d != post+poll clock %d", cs.Now(), ca.Now())
	}
}

// TestPostAdvancesOnlyIssueOverhead: between post and poll the client's
// clock moves by exactly IssueOverhead per posted verb.
func TestPostAdvancesOnlyIssueOverhead(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	issue := f.Config().IssueOverhead.Nanoseconds()

	t0 := c.Now()
	var hs []*Completion
	buf := make([]byte, 64)
	for i := 0; i < 4; i++ {
		h, err := c.PostRead(GAddr{Off: 64}, buf)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if got, want := c.Now()-t0, 4*issue; got != want {
		t.Fatalf("clock advanced %dns during posts, want %dns", got, want)
	}
	if c.Inflight() != 4 {
		t.Fatalf("inflight = %d, want 4", c.Inflight())
	}
	c.WaitAll(hs...)
	if c.Inflight() != 0 {
		t.Fatalf("inflight after WaitAll = %d, want 0", c.Inflight())
	}
	if st := c.Stats(); st.MaxInflight != 4 || st.Posted != 4 {
		t.Fatalf("stats = %+v, want MaxInflight 4, Posted 4", st)
	}
}

// TestPipelineOverlapsRoundTrips: depth-D pipelining of independent
// reads must finish in far less virtual time than D sequential reads —
// the RTTs overlap, only NIC service serializes.
func TestPipelineOverlapsRoundTrips(t *testing.T) {
	cfg := testConfig()
	f1 := MustNewFabric(cfg)
	f2 := MustNewFabric(cfg)
	seq, pip := f1.NewClient(), f2.NewClient()
	const depth = 8
	buf := make([]byte, 64)

	t0 := seq.Now()
	for i := 0; i < depth; i++ {
		if err := seq.Read(GAddr{Off: 64}, buf); err != nil {
			t.Fatal(err)
		}
	}
	seqDur := seq.Now() - t0

	t0 = pip.Now()
	var hs []*Completion
	for i := 0; i < depth; i++ {
		h, err := pip.PostRead(GAddr{Off: 64}, buf)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	pip.WaitAll(hs...)
	pipDur := pip.Now() - t0

	t.Logf("sequential %dns, pipelined %dns", seqDur, pipDur)
	if pipDur*2 >= seqDur {
		t.Fatalf("pipelined %dns not < half of sequential %dns", pipDur, seqDur)
	}
}

// TestCompletionOrderingUnderSaturation: a stream of posted verbs from
// one client completes at the NIC in post order, with strictly
// nondecreasing completion times, even when the NIC queue is saturated
// by a large backlog.
func TestCompletionOrderingUnderSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.IOPS = 1e6 // 1 µs per verb: saturates immediately
	f := MustNewFabric(cfg)

	// Saturate the NIC with a competing client's backlog.
	other := f.NewClient()
	big := make([]byte, 64<<10)
	for i := 0; i < 32; i++ {
		if err := other.Write(GAddr{Off: 64}, big); err != nil {
			t.Fatal(err)
		}
	}

	c := f.NewClient() // joins at the frontier, behind the backlog
	buf := make([]byte, 64)
	var hs []*Completion
	for i := 0; i < 64; i++ {
		h, err := c.PostRead(GAddr{Off: 64}, buf)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	prev := int64(-1)
	for i, h := range hs {
		if h.nicDone < prev {
			t.Fatalf("completion %d at %dns before predecessor at %dns", i, h.nicDone, prev)
		}
		prev = h.nicDone
	}
	// Polling out of order must still land the clock on the max.
	for i := len(hs) - 1; i >= 0; i-- {
		c.Poll(hs[i])
	}
	if want := hs[len(hs)-1].nicDone + f.Config().BaseRTT.Nanoseconds(); c.Now() != want {
		t.Fatalf("clock %dns after out-of-order polls, want %dns", c.Now(), want)
	}
}

// TestWaitAllEmpty: WaitAll with no (or nil) completions is a no-op.
func TestWaitAllEmpty(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	t0 := c.Now()
	if got := c.WaitAll(); got != t0 {
		t.Fatalf("WaitAll() moved clock %d -> %d", t0, got)
	}
	if got := c.WaitAll(nil, nil); got != t0 {
		t.Fatalf("WaitAll(nil, nil) moved clock %d -> %d", t0, got)
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d", c.Inflight())
	}
}

// TestPostReadBatchEmpty: an empty posted batch completes instantly and
// does not count as a trip.
func TestPostReadBatchEmpty(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	h, err := c.PostReadBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("empty batch must be pre-completed")
	}
	t0 := c.Now()
	c.Poll(h)
	if c.Now() != t0 {
		t.Fatal("polling an empty batch moved the clock")
	}
	if st := c.Stats(); st.Trips != 0 || st.Posted != 0 {
		t.Fatalf("empty batch counted traffic: %+v", st)
	}
}

// TestPostWriteVisibleAtPost: posted writes land in remote memory at
// post time; a read posted later (same client) observes them.
func TestPostWriteVisibleAtPost(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	want := []byte("posted write payload")
	hw, err := c.PostWrite(GAddr{Off: 128}, want)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	hr, err := c.PostRead(GAddr{Off: 128}, got)
	if err != nil {
		t.Fatal(err)
	}
	c.WaitAll(hw, hr)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

// TestPostCASResult: the atomic's outcome is readable after Poll and
// panics before it.
func TestPostCASResult(t *testing.T) {
	f := MustNewFabric(testConfig())
	c := f.NewClient()
	addr := GAddr{Off: 256}
	var zero [8]byte
	if err := c.Write(addr, zero[:]); err != nil {
		t.Fatal(err)
	}
	h, err := c.PostCAS(addr, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("CASResult before Poll must panic")
			}
		}()
		h.CASResult()
	}()
	c.Poll(h)
	prev, ok := h.CASResult()
	if prev != 0 || !ok {
		t.Fatalf("CAS result (%d, %v), want (0, true)", prev, ok)
	}
	h2, err := c.PostCAS(addr, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Poll(h2)
	if prev, ok := h2.CASResult(); ok || prev != 42 {
		t.Fatalf("second CAS result (%d, %v), want (42, false)", prev, ok)
	}
}

// TestPollForeignCompletionPanics: handles are owned by their poster.
func TestPollForeignCompletionPanics(t *testing.T) {
	f := MustNewFabric(testConfig())
	c1, c2 := f.NewClient(), f.NewClient()
	buf := make([]byte, 8)
	h, err := c1.PostRead(GAddr{Off: 64}, buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("polling a foreign completion must panic")
		}
	}()
	c2.Poll(h)
}

// TestPollAfterSuspendCohort: a cohort member that steps out of the
// cohort with a verb in flight may poll it while out, rejoin with the
// advanced clock, and keep issuing — without wedging the window for the
// rest of the cohort.
func TestPollAfterSuspendCohort(t *testing.T) {
	cfg := testConfig()
	f := MustNewFabric(cfg)
	const members = 4
	cls := make([]*Client, members)
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
			buf := make([]byte, 128)
			for j := 0; j < 50; j++ {
				h, err := c.PostRead(GAddr{Off: 64}, buf)
				if err != nil {
					t.Error(err)
					return
				}
				if j%10 == 5 {
					c.LeaveCohort()
					c.Poll(h)
					c.JoinCohort()
					continue
				}
				c.Poll(h)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cohort wedged: a poll outside the cohort broke the window")
	}
}
