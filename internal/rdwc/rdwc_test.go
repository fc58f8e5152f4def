package rdwc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"chime/internal/dmsim"
)

func newClients(n int) []*dmsim.Client {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 1 << 20
	f := dmsim.MustNewFabric(cfg)
	cls := make([]*dmsim.Client, n)
	for i := range cls {
		cls[i] = f.NewClient()
	}
	return cls
}

func TestReadDelegation(t *testing.T) {
	cls := newClients(8)
	c := NewCombiner()
	var remoteReads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([][]byte, 8)
	// Leader: blocks inside fn until everyone has piled up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = c.Read(cls[0], 42, func() ([]byte, error) {
			remoteReads.Add(1)
			close(started)
			<-release
			cls[0].Advance(5000)
			return []byte("value"), nil
		})
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.Read(cls[i], 42, func() ([]byte, error) {
				remoteReads.Add(1)
				return []byte("value"), nil
			})
		}(i)
	}
	// Give followers a chance to register, then release the leader.
	for {
		c.mu.Lock()
		fl := c.reads[42]
		n := 0
		if fl != nil {
			n = 1
		}
		c.mu.Unlock()
		if n == 1 {
			d, _ := c.Stats()
			if d >= 7 {
				break
			}
		}
		// Followers register synchronously before blocking; spin until
		// the delegation count reaches 7.
		d, _ := c.Stats()
		if d >= 7 {
			break
		}
	}
	close(release)
	wg.Wait()

	if got := remoteReads.Load(); got != 1 {
		t.Fatalf("remote reads = %d, want 1 (delegation)", got)
	}
	for i, r := range results {
		if string(r) != "value" {
			t.Fatalf("client %d got %q", i, r)
		}
	}
	d, _ := c.Stats()
	if d != 7 {
		t.Fatalf("delegated = %d, want 7", d)
	}
	// Followers' clocks must be at or past the leader's completion.
	for i := 1; i < 8; i++ {
		if cls[i].Now() < cls[0].Now() {
			t.Fatalf("follower %d clock %d behind leader %d", i, cls[i].Now(), cls[0].Now())
		}
	}
}

func TestWriteCombining(t *testing.T) {
	cls := newClients(4)
	c := NewCombiner()
	var mu sync.Mutex
	var writes [][]byte
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Write(cls[0], 7, []byte("v0"), func(v []byte) error {
			mu.Lock()
			writes = append(writes, append([]byte(nil), v...))
			first := len(writes) == 1
			mu.Unlock()
			if first {
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Write(cls[i], 7, []byte(fmt.Sprintf("v%d", i)), func(v []byte) error {
				mu.Lock()
				writes = append(writes, append([]byte(nil), v...))
				mu.Unlock()
				return nil
			})
		}(i)
	}
	for {
		_, combined := c.Stats()
		if combined >= 3 {
			break
		}
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	// The leader wrote v0; the 3 combined writers collapsed into at
	// most a couple of flush rounds.
	if len(writes) < 2 || len(writes) > 3 {
		t.Fatalf("remote writes = %d (%q), want 2-3 (combining)", len(writes), writes)
	}
	if string(writes[0]) != "v0" {
		t.Fatalf("first write = %q", writes[0])
	}
}

func TestWriteErrorPropagates(t *testing.T) {
	cls := newClients(2)
	c := NewCombiner()
	boom := errors.New("boom")
	if err := c.Write(cls[0], 1, []byte("x"), func([]byte) error { return boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
}

func TestReadErrorPropagates(t *testing.T) {
	cls := newClients(1)
	c := NewCombiner()
	boom := errors.New("boom")
	if _, err := c.Read(cls[0], 1, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	// The flight must be cleaned up: a second read runs fresh.
	calls := 0
	c.Read(cls[0], 1, func() ([]byte, error) { calls++; return nil, nil })
	if calls != 1 {
		t.Fatal("flight not cleaned up after error")
	}
}

func TestDistinctKeysDoNotCombine(t *testing.T) {
	cls := newClients(4)
	c := NewCombiner()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Read(cls[i], uint64(i), func() ([]byte, error) {
				calls.Add(1)
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	if calls.Load() != 4 {
		t.Fatalf("distinct keys coalesced: %d calls", calls.Load())
	}
}

func TestCombinerUnderGatedCohort(t *testing.T) {
	// Followers wait in virtual time: they stay cohort members but hold
	// no window back, so the leader advances windows without them.
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 1 << 20
	f := dmsim.MustNewFabric(cfg)
	const n = 6
	cls := make([]*dmsim.Client, n)
	for i := range cls {
		cls[i] = f.NewClient()
		cls[i].JoinCohort()
	}
	c := NewCombiner()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cls[i].LeaveCohort()
			buf := make([]byte, 64)
			for j := 0; j < 50; j++ {
				_, err := c.Read(cls[i], uint64(j%3), func() ([]byte, error) {
					// Leader does real gated verbs spanning windows.
					for k := 0; k < 3; k++ {
						if err := cls[i].Read(dmsim.GAddr{Off: 64}, buf); err != nil {
							return nil, err
						}
					}
					return []byte("ok"), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	d, _ := c.Stats()
	if d == 0 {
		t.Fatal("expected some delegation under contention")
	}
}

func TestReadBypassOutsideVirtualWindow(t *testing.T) {
	cls := newClients(2)
	c := NewCombinerWindow(1000)
	started := make(chan struct{})
	release := make(chan struct{})
	var leaderCalls, followerCalls atomic.Int64

	go func() {
		c.Read(cls[0], 5, func() ([]byte, error) {
			leaderCalls.Add(1)
			close(started)
			<-release
			return []byte("old"), nil
		})
	}()
	<-started
	// The second client is far ahead in virtual time: merging would hand
	// it a result from its past, so it must bypass and read itself.
	cls[1].Advance(1_000_000)
	got, err := c.Read(cls[1], 5, func() ([]byte, error) {
		followerCalls.Add(1)
		return []byte("fresh"), nil
	})
	if err != nil || string(got) != "fresh" {
		t.Fatalf("bypass read = %q, %v", got, err)
	}
	if followerCalls.Load() != 1 {
		t.Fatal("future-era read must execute independently")
	}
	close(release)
	if d, _ := c.Stats(); d != 0 {
		t.Fatalf("delegated = %d, want 0", d)
	}
}

func TestWriteMergesAcrossBacklog(t *testing.T) {
	// Unlike reads, writes combine with an in-flight write even when the
	// writer is far ahead in virtual time: its value still gets flushed.
	// Each sealed round is flushed exactly once, by its first depositor,
	// with the value deposited last.
	cls := newClients(4)
	c := NewCombinerWindow(1000)
	type flush struct {
		by  int
		val string
	}
	var mu sync.Mutex
	var flushes []flush
	// The first two writes hold until released, so that a round collects
	// behind each of them.
	started := []chan struct{}{make(chan struct{}), make(chan struct{})}
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	done := make(chan error, len(cls))
	write := func(i int) {
		done <- c.Write(cls[i], 6, []byte(fmt.Sprintf("v%d", i)), func(v []byte) error {
			mu.Lock()
			flushes = append(flushes, flush{i, string(v)})
			n := len(flushes)
			mu.Unlock()
			if n <= len(started) {
				close(started[n-1])
				<-release[n-1]
			}
			return nil
		})
	}
	deposited := func(n int64) {
		for {
			if _, combined := c.Stats(); combined == n {
				return
			}
		}
	}

	go write(0)
	<-started[0]
	cls[1].Advance(1_000_000) // far in the virtual future
	go write(1)
	deposited(1)
	go write(2)
	deposited(2)
	close(release[0]) // seals {1, 2}: client 1 flushes v2
	<-started[1]
	go write(3)
	deposited(3)
	close(release[1]) // seals {3}: client 3 flushes its own value
	for range cls {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := []flush{{0, "v0"}, {1, "v2"}, {3, "v3"}}
	if !slices.Equal(flushes, want) {
		t.Fatalf("flushes = %v, want %v", flushes, want)
	}
	if h := c.Handoffs(); h != 2 {
		t.Fatalf("handoffs = %d, want 2", h)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.writes) != 0 {
		t.Fatal("key still registered after its last round drained")
	}
}

// TestLeaderReadAllocs: an uncontended read — a leader no follower joins,
// which is what ~86 % of delegated reads are — allocates nothing: its
// flight record is recycled, since nobody else ever held it. A follower
// that does join queues through its own client and allocates nothing
// either; only the record it shares with its leader goes to the collector.
func TestLeaderReadAllocs(t *testing.T) {
	dc := newClients(1)[0]
	c := NewCombiner()
	val := []byte("value")
	fn := func() ([]byte, error) { return val, nil }
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Read(dc, 7, fn); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("uncontended leader read: %.1f allocs, want 0", n)
	}
}

// TestLeaderWriteAllocs: same for an uncontended write.
func TestLeaderWriteAllocs(t *testing.T) {
	dc := newClients(1)[0]
	c := NewCombiner()
	val := []byte("value")
	fn := func([]byte) error { return nil }
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Write(dc, 7, val, fn); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("uncontended leader write: %.1f allocs, want 0", n)
	}
}
