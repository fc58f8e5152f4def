package dmsim

import (
	"strconv"
	"sync"
	"testing"
)

// TestVerbRoundTripZeroAllocs pins the ISSUE 6 tentpole invariant:
// steady-state verb issue/poll allocates nothing. The completion
// freelist, batch-payload scratch, and shard counters make every verb
// after the first reuse of warm state.
func TestVerbRoundTripZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20
	f := MustNewFabric(cfg)
	c := f.NewClient()
	buf := make([]byte, 64)
	addr := GAddr{Off: 64}

	if n := testing.AllocsPerRun(1000, func() {
		if err := c.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("sync read allocates %v per op, want 0", n)
	}

	if n := testing.AllocsPerRun(1000, func() {
		if err := c.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("sync write allocates %v per op, want 0", n)
	}

	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := c.CAS(addr, 0, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CAS allocates %v per op, want 0", n)
	}

	// Posted pipeline at depth 8 with explicit Release.
	var hs [8]*Completion
	if n := testing.AllocsPerRun(1000, func() {
		for i := range hs {
			h, err := c.PostRead(addr, buf)
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		for i := range hs {
			c.Poll(hs[i])
			c.Release(hs[i])
		}
	}); n != 0 {
		t.Fatalf("posted pipeline allocates %v per batch, want 0", n)
	}

	// Doorbell batch reusing the payload scratch.
	addrs := []GAddr{{Off: 64}, {Off: 256}, {Off: 512}}
	bufs := [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64)}
	if n := testing.AllocsPerRun(1000, func() {
		if err := c.ReadBatch(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("batched read allocates %v per batch, want 0", n)
	}
}

// BenchmarkVerbRoundTrip measures the verb issue/poll hot path: the
// sync wrapper (post + poll + release) and a depth-8 posted pipeline.
func BenchmarkVerbRoundTrip(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MNSize = 1 << 20

	b.Run("sync", func(b *testing.B) {
		f := MustNewFabric(cfg)
		c := f.NewClient()
		buf := make([]byte, 64)
		addr := GAddr{Off: 64}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Read(addr, buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("posted8", func(b *testing.B) {
		f := MustNewFabric(cfg)
		c := f.NewClient()
		buf := make([]byte, 64)
		addr := GAddr{Off: 64}
		var hs [8]*Completion
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hs) {
			for j := range hs {
				h, err := c.PostRead(addr, buf)
				if err != nil {
					b.Fatal(err)
				}
				hs[j] = h
			}
			for j := range hs {
				c.Poll(hs[j])
				c.Release(hs[j])
			}
		}
	})
}

// BenchmarkCohortAdvance measures the scheduler advance itself — cohort
// members crossing window edges as fast as they can — at several cohort
// sizes. Every sync is an edge crossing (the member's clock advances one
// quantum per issue), so ns/op is the per-member cost of one window
// advance.
func BenchmarkCohortAdvance(b *testing.B) {
	for _, members := range []int{8, 64, 512} {
		b.Run(strconv.Itoa(members), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.MNSize = 1 << 20
			f := MustNewFabric(cfg)
			cls := make([]*Client, members)
			for m := range cls {
				cls[m] = f.NewClient()
				cls[m].JoinCohort()
			}
			quantum := cfg.quantumNs()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / members
			for m := 0; m < members; m++ {
				wg.Add(1)
				go func(c *Client) {
					defer wg.Done()
					defer c.LeaveCohort()
					for j := 0; j < per; j++ {
						c.Sync()
						c.now += quantum
					}
				}(cls[m])
			}
			wg.Wait()
		})
	}
}
