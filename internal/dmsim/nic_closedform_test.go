package dmsim

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

// The fabric's queueing against closed forms (the oracle of the one
// scheduler: there is no second implementation to agree with). The
// NIC's recurrence done = max(arrival, free) + service is exact for
// arrivals served in time order, and the cohort scheduler serves a
// cohort's verbs in (clock, slot) order — so N members' READs against
// one MN must cost what the arithmetic says, to the nanosecond.

// burstCohort runs n members from one epoch, each issuing k READs of
// size bytes. With lockstep set every member idles to the end of the
// round after its read (the slowest member's completion, which is the
// closed form's own prediction), so each round is a simultaneous burst.
// It returns every member's clock after each of its reads.
func burstCohort(t *testing.T, f *Fabric, n, k, size int, lockstep bool) [][]int64 {
	t.Helper()
	cls := make([]*Client, n)
	for i := range cls {
		cls[i] = f.NewClient()
		cls[i].JoinCohort()
	}
	cfg := f.Config()
	issue, rtt := cfg.IssueOverhead.Nanoseconds(), cfg.BaseRTT.Nanoseconds()
	round := issue + int64(n)*f.mns[0].nic.serviceNs(size) + rtt
	clocks := make([][]int64, n)
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cls[i]
			defer c.LeaveCohort()
			buf := make([]byte, size)
			for r := 1; r <= k; r++ {
				if err := c.Read(GAddr{Off: 64}, buf); err != nil {
					t.Error(err)
					return
				}
				clocks[i] = append(clocks[i], c.Now())
				if lockstep {
					c.Advance(int64(r)*round - c.Now())
				}
			}
		}(i)
	}
	wg.Wait()
	return clocks
}

// TestNICBurstClosedForm: the j-th READ served of a simultaneous burst
// of n equal ones completes issue + j·service + RTT after the burst's
// epoch, and the burst queues service·n(n-1)/2 in all — for one member,
// eight and thirty-two, below the IOPS/bandwidth knee (64 B: 16 ns,
// message-rate bound) and above it (1 KiB: 81 ns, bandwidth bound),
// round after round.
func TestNICBurstClosedForm(t *testing.T) {
	const k = 20
	for _, n := range []int{1, 8, 32} {
		for _, size := range []int{64, 1024} {
			t.Run(fmt.Sprintf("n%d/%dB", n, size), func(t *testing.T) {
				f := MustNewFabric(evConfig(1))
				cfg := f.Config()
				issue, rtt := cfg.IssueOverhead.Nanoseconds(), cfg.BaseRTT.Nanoseconds()
				svc := f.mns[0].nic.serviceNs(size)
				if small := size == 64; small != (svc == int64(1e9/cfg.IOPS)) {
					t.Fatalf("%d B serves in %dns: on the wrong side of the knee", size, svc)
				}
				clocks := burstCohort(t, f, n, k, size, true)
				round := issue + int64(n)*svc + rtt
				for r := 0; r < k; r++ {
					// Equal clocks are served in the order the calendar
					// released them, which is slot order only for the
					// first burst: hold the burst as a whole to the form.
					done := make([]int64, n)
					for i := range clocks {
						done[i] = clocks[i][r]
					}
					slices.Sort(done)
					for j, got := range done {
						if want := int64(r)*round + issue + int64(j+1)*svc + rtt; got != want {
							t.Fatalf("round %d: %d-th completion at %d, want %d", r, j+1, got, want)
						}
					}
				}
				st := f.TotalNICStats()
				if want := int64(k) * svc * int64(n*(n-1)/2); st.QueuedNs != want {
					t.Errorf("NIC queued %dns in all, closed form %d", st.QueuedNs, want)
				}
				if want := int64(k*n) * svc; st.ServedNs != want || st.Verbs != int64(k*n) {
					t.Errorf("NIC served %d verbs in %dns, want %d in %d", st.Verbs, st.ServedNs, k*n, want)
				}
			})
		}
	}
}

// TestNICFreeRunningMatchesRecurrence lets the same cohorts run on from
// their own completions instead of re-forming the burst: the members
// stagger themselves by one service time and (below saturation) never
// queue again. The oracle is the recurrence itself applied to every
// READ in (issue clock, slot) order — fifteen lines that know nothing
// of windows, lanes or batons.
func TestNICFreeRunningMatchesRecurrence(t *testing.T) {
	const k = 30
	for _, n := range []int{1, 8, 32} {
		for _, size := range []int{64, 1024} {
			f := MustNewFabric(evConfig(1))
			cfg := f.Config()
			issue, rtt := cfg.IssueOverhead.Nanoseconds(), cfg.BaseRTT.Nanoseconds()
			svc := f.mns[0].nic.serviceNs(size)
			got := burstCohort(t, f, n, k, size, false)

			type member struct {
				slot, done int
				now        int64
			}
			ms := make([]member, n)
			for i := range ms {
				ms[i].slot = i
			}
			var free, queued int64
			for step := 0; step < n*k; step++ {
				sort.Slice(ms, func(a, b int) bool {
					if (ms[a].done == k) != (ms[b].done == k) {
						return ms[b].done == k
					}
					if ms[a].now != ms[b].now {
						return ms[a].now < ms[b].now
					}
					return ms[a].slot < ms[b].slot
				})
				m := &ms[0]
				arrival := m.now + issue
				start := max(arrival, free)
				queued += start - arrival
				free = start + svc
				m.now = free + rtt
				if want := got[m.slot][m.done]; want != m.now {
					t.Fatalf("n=%d %dB: member %d read %d finished at %d, recurrence says %d", n, size, m.slot, m.done, want, m.now)
				}
				m.done++
			}
			if st := f.TotalNICStats(); st.QueuedNs != queued {
				t.Errorf("n=%d %dB: NIC queued %dns in all, recurrence says %d", n, size, st.QueuedNs, queued)
			}
		}
	}
}
