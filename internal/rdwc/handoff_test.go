package rdwc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"chime/internal/dmsim"
)

// The write hand-off (Combiner.Write), held to clocks. A cohort is a
// pure function of its script at any GOMAXPROCS, so the closed forms are
// exact and the model test's log repeats to the bit; both run under
// -race at -cpu 1,2,4 (make race).

// flushed is one execution of a caller's fn: one remote write.
type flushed struct {
	key          uint64
	by           int // client
	val          uint64
	start, end   int64 // virtual clocks
	began, ended int   // positions in the run's order of events
	err          error
}

// call is one Combiner.Write as its caller saw it.
type call struct {
	key       uint64
	by        int
	val       uint64 // unique, increasing in deposit order
	t0, t1    int64  // virtual clocks at invocation and return
	dep, ret  int    // positions in the run's order of events
	err       error
	flushes   int // times the caller's fn ran
	lastFlush int // position in the log of the last of them
}

// step is one move of a cohort member's script: think, then update a key.
type step struct {
	think int64
	key   uint64
}

// runCohort plays one script per client against a fresh combiner on a
// fresh fabric. fn costs cost(key, val) ns and fails when fail says so.
// Values are handed out in deposit order: a member syncs, takes the next
// value and calls Write, whose own Sync then finds the clock where it was.
// Deposits, the two ends of a write and returns are also numbered in the
// order they happen: members inside one window run in an order that may
// differ from their clocks' by up to the quantum, so "before" is held to
// that numbering and clocks to what the protocol computes from them.
func runCohort(t *testing.T, scripts [][]step, cost func(key, val uint64) int64, fail func(key, val uint64) error) (*Combiner, []call, []flushed) {
	t.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 1 << 20
	f := dmsim.MustNewFabric(cfg)
	cls := make([]*dmsim.Client, len(scripts))
	for i := range cls {
		cls[i] = f.NewClient()
		cls[i].JoinCohort()
	}
	c := NewCombiner()
	var (
		mu      sync.Mutex // the cohort runs one member at a time; this is for the race detector's peace
		nextVal uint64
		events  int
		log     []flushed
		calls   []call
	)
	tick := func() int { // caller holds mu
		events++
		return events
	}
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dc := cls[i]
			defer dc.LeaveCohort()
			dc.Sync()
			for _, st := range scripts[i] {
				dc.Advance(st.think)
				dc.Sync()
				mu.Lock()
				nextVal++
				cl := call{key: st.key, by: i, val: nextVal, t0: dc.Now(), dep: tick()}
				mu.Unlock()
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], cl.val)
				cl.err = c.Write(dc, st.key, buf[:], func(v []byte) error {
					e := flushed{key: st.key, by: i, val: binary.LittleEndian.Uint64(v), start: dc.Now()}
					mu.Lock()
					e.began = tick()
					mu.Unlock()
					dc.Advance(cost(e.key, e.val))
					dc.Sync()
					e.end, e.err = dc.Now(), fail(e.key, e.val)
					mu.Lock()
					e.ended = tick()
					cl.flushes, cl.lastFlush = cl.flushes+1, len(log)
					log = append(log, e)
					mu.Unlock()
					return e.err
				})
				cl.t1 = dc.Now()
				mu.Lock()
				cl.ret = tick()
				calls = append(calls, cl)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return c, calls, log
}

// TestHandoffClosedForm: n clients update one key once, a write costs W.
// Client i arrives at i*stagger. Client 0 leads and returns at W. A
// client that arrives during write k (which runs [kW, (k+1)W); a tie
// with its end goes to the writer, whose slot is lower) collects in
// round k+1, and every member of round r returns at (r+1)W: it waits
// for at most one write in progress and then for its own round's. The
// serve-until-empty leader this replaced returned at (rounds+1)W.
func TestHandoffClosedForm(t *testing.T) {
	const W = 5000 // 2.5 cohort quanta: a write spans window edges
	for _, tc := range []struct {
		name    string
		n       int
		stagger int64
	}{
		{"lockstep", 16, 0},
		{"staggered", 9, W / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scripts := make([][]step, tc.n)
			for i := range scripts {
				scripts[i] = []step{{think: int64(i) * tc.stagger, key: 7}}
			}
			c, calls, log := runCohort(t, scripts,
				func(_, _ uint64) int64 { return W },
				func(_, _ uint64) error { return nil })

			round := func(i int) int64 {
				if i == 0 {
					return 0
				}
				return int64(i)*tc.stagger/W + 1
			}
			rounds := round(tc.n - 1)
			first := map[int64]int{}      // round -> its first depositor
			lastVal := map[int64]uint64{} // round -> the value deposited last
			slices.SortFunc(calls, func(a, b call) int { return a.by - b.by })
			for _, cl := range calls {
				r := round(cl.by)
				if _, ok := first[r]; !ok {
					first[r] = cl.by
				}
				lastVal[r] = max(lastVal[r], cl.val)
			}
			for _, cl := range calls {
				r := round(cl.by)
				if want := (r + 1) * W; cl.t1 != want || cl.err != nil {
					t.Errorf("client %d (round %d) returned at %d (err %v), want %d", cl.by, r, cl.t1, cl.err, want)
				}
				want := 0
				if first[r] == cl.by {
					want = 1
				}
				if cl.flushes != want {
					t.Errorf("client %d (round %d) ran fn %d times, want %d", cl.by, r, cl.flushes, want)
				}
			}
			if int64(len(log)) != rounds+1 {
				t.Fatalf("%d remote writes, want the leader's and one per round: %d", len(log), rounds+1)
			}
			for r, e := range log {
				r := int64(r)
				if e.by != first[r] || e.val != lastVal[r] || e.start != r*W || e.end != (r+1)*W {
					t.Errorf("write %d = client %d, value %d, [%d, %d); want client %d, value %d, [%d, %d)",
						r, e.by, e.val, e.start, e.end, first[r], lastVal[r], r*W, (r+1)*W)
				}
			}
			if _, combined := c.Stats(); combined != int64(tc.n-1) || c.Handoffs() != rounds {
				t.Errorf("combined %d, handoffs %d; want %d, %d", combined, c.Handoffs(), tc.n-1, rounds)
			}
		})
	}
}

// TestHandoffModel: random scripts on a few keys, writes of random cost
// that sometimes fail, checked call by call against the log of remote
// writes:
//
//  1. no deposited value is dropped: every call is served by a write of
//     its own value or of one deposited after it on the same key, and
//     the key's last write carries its last deposited value;
//  2. one writer per key at a time, and values reach the remote side in
//     deposit order (last depositor wins within a round, rounds flush in
//     the order they were sealed);
//  3. the write that serves a call begins after the call deposited, and
//     the call returns once it has completed, at its completion clock
//     (or the caller's own, if that is later), with its error;
//  4. nobody runs fn more than once per call;
//  5. the same script replays to the same log.
func TestHandoffModel(t *testing.T) {
	quantum := dmsim.DefaultConfig().BaseRTT.Nanoseconds()
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clients, keys := 4+rng.Intn(20), uint64(1+rng.Intn(3))
			scripts := make([][]step, clients)
			total := 0
			for i := range scripts {
				for n := 5 + rng.Intn(20); n > 0; n-- {
					// Mostly short thinks: the keys stay hot and rounds deep.
					think := rng.Int63n(3000)
					if rng.Intn(8) == 0 {
						think = rng.Int63n(40_000)
					}
					scripts[i] = append(scripts[i], step{think, rng.Uint64() % keys})
					total++
				}
			}
			cost := func(key, val uint64) int64 { return 500 + int64((key*31+val*2654435761)%5500) }
			errs := map[uint64]error{}
			for v := uint64(1); v <= uint64(total); v++ {
				if rng.Intn(5) == 0 {
					errs[v] = fmt.Errorf("write of value %d failed", v)
				}
			}
			fail := func(_, val uint64) error { return errs[val] }

			c, calls, log := runCohort(t, scripts, cost, fail)
			if len(calls) != total {
				t.Fatalf("%d calls returned, want %d", len(calls), total)
			}

			perKey := map[uint64][]flushed{}
			for _, e := range log {
				ks := perKey[e.key]
				if n := len(ks); n > 0 {
					// In clocks the two may overlap by the cohort's skew: a
					// leader that finds the key free inside the window the
					// last writer finished in.
					if p := ks[n-1]; p.ended > e.began || p.val >= e.val || p.end-e.start >= quantum {
						t.Errorf("key %d: write %+v follows %+v: overlapping or out of deposit order", e.key, e, p)
					}
				}
				perKey[e.key] = append(ks, e)
			}
			lastDeposit := map[uint64]uint64{}
			for _, cl := range calls {
				lastDeposit[cl.key] = max(lastDeposit[cl.key], cl.val)
				if cl.flushes > 1 {
					t.Errorf("call %+v ran fn %d times", cl, cl.flushes)
				}
				// The write that serves a call: the first on its key to
				// carry its value or a later one.
				ks := perKey[cl.key]
				i, _ := slices.BinarySearchFunc(ks, cl.val, func(e flushed, v uint64) int {
					if e.val < v {
						return -1
					}
					return 1
				})
				if i == len(ks) {
					t.Errorf("call %+v: no write of its value or a later one", cl)
					continue
				}
				e := ks[i]
				if e.began < cl.dep || e.ended > cl.ret || cl.t1 != max(cl.t0, e.end) || e.err != cl.err {
					t.Errorf("call %+v served by %+v: want the write to begin after the deposit, the call to return when it ends, with its error", cl, e)
				}
				if cl.flushes == 1 && log[cl.lastFlush] != e {
					t.Errorf("call %+v ran write %+v but was served by %+v", cl, log[cl.lastFlush], e)
				}
			}
			for key, ks := range perKey {
				if got := ks[len(ks)-1].val; got != lastDeposit[key] {
					t.Errorf("key %d: last write carries %d, last deposit was %d", key, got, lastDeposit[key])
				}
			}
			_, combined := c.Stats()
			handoffs := c.Handoffs()
			if int64(len(log)) != int64(total)-combined+handoffs || handoffs > combined || combined == 0 {
				t.Errorf("%d writes for %d calls, %d combined, %d handed off: want writes = calls - combined + handoffs, and some combining",
					len(log), total, combined, handoffs)
			}
			if len(c.writes) != 0 {
				t.Errorf("%d keys still registered", len(c.writes))
			}

			_, _, again := runCohort(t, scripts, cost, fail)
			if !slices.Equal(log, again) {
				t.Errorf("the same script wrote a different log the second time")
			}
		})
	}
}
