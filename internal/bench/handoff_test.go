package bench

import (
	"slices"
	"testing"

	"chime/internal/rdwc"
	"chime/internal/ycsb"
)

// flushCounting is a system whose clients count, per Update the harness
// issues, how many index updates — remote writes — the RDWC layer made
// them run. It rebuilds the rdwcClient stack of a system built with RDWC
// off around a counter; neither wrapper touches a clock.
type flushCounting struct {
	System
	comb    *rdwc.Combiner
	clients []*flushCounter
}

func (s *flushCounting) Combiner() *rdwc.Combiner { return s.comb }

func (s *flushCounting) NewClient() Client {
	in := &flushCounter{Client: s.System.NewClient()}
	s.clients = append(s.clients, in)
	return countedOp{rdwcClient{Client: in, comb: s.comb}, in}
}

// flushCounter is the index client as the combiner's fn sees it.
type flushCounter struct {
	Client
	inOp, worst int
}

func (c *flushCounter) Update(key uint64, value []byte) error {
	c.inOp++
	c.worst = max(c.worst, c.inOp)
	return c.Client.Update(key, value)
}

// countedOp is the client as the harness sees it.
type countedOp struct {
	rdwcClient
	in *flushCounter
}

func (o countedOp) Update(key uint64, value []byte) error {
	o.in.inOp = 0
	return o.rdwcClient.Update(key, value)
}

// TestHandoffBoundsTheWriteLeader is the row that found the unbounded
// write leader (ROADMAP item 4d: 64 clients, YCSB A, 12 000 keys, 6 000
// ops, seed 12 — fig 12's small-scale 64-client point). With a leader
// that served round after round until one collected no deposit, one
// Sherman update ran 78 remote writes (715 µs in a run whose p99 was
// 27 µs), its client finished 63 % after the median one, and the row —
// ops over the slowest client's finish — read 5.33 Mops. With the
// hand-off nobody runs more than one write per update, and the tail of
// the finish clocks is what the Zipfian draw gives each client.
func TestHandoffBoundsTheWriteLeader(t *testing.T) {
	sc := Scale{LoadN: 12000, MNSize: 256 << 20}
	for _, tc := range []struct {
		name     string
		minMops  float64 // 0: not pinned
		maxStrag float64 // slowest finish over the median one
	}{
		// Measured here / at the parent: Sherman 7.68 / 5.33 Mops, most
		// index updates in one Update 1 / 78, slowest over median client
		// 1.134 / 1.631; CHIME 10.04 / 6.86 Mops, 1 / 66, 1.199 / 1.644
		// (7.82 and 10.24 Mops, 1.116 and 1.159 since PR 23 packed the
		// trees this loads).
		// A client runs 93 ops, so what is left of the ratio is the draw:
		// how many of them are updates, and of hot keys. The bounds leave
		// 6 points for other changes to move clocks.
		{"Sherman", 7.0, 1.20},
		{"CHIME", 0, 1.26},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, cfg, err := buildSystem(tc.name, sc, 1, func(c *SystemConfig) { c.DisableRDWC = true })
			if err != nil {
				t.Fatal(err)
			}
			sys := &flushCounting{System: inner, comb: rdwc.NewCombiner()}
			start := cfg.Fabric.Frontier()
			r, err := runPoint(sys, cfg, ycsb.WorkloadA, 64, 6000, 12)
			if err != nil {
				t.Fatal(err)
			}
			if r.CombinedWrites == 0 || r.Handoffs == 0 {
				t.Fatalf("%d combined writes, %d handed off: the row did not contend", r.CombinedWrites, r.Handoffs)
			}
			var finish []int64
			for i, c := range sys.clients {
				if c.worst > 1 {
					t.Errorf("client %d ran %d index updates inside one Update: a writer served more than its own round", i, c.worst)
				}
				finish = append(finish, c.DM().Now()-start)
			}
			slices.Sort(finish)
			strag := float64(finish[len(finish)-1]) / float64(finish[len(finish)/2])
			t.Logf("%s: %.2f Mops, p99 %.1f us, slowest client / median client = %.3f, %d combined, %d handed off",
				tc.name, r.ThroughputMops, r.P99Us, strag, r.CombinedWrites, r.Handoffs)
			if r.ThroughputMops < tc.minMops {
				t.Errorf("%.2f Mops, want >= %.1f", r.ThroughputMops, tc.minMops)
			}
			if strag > tc.maxStrag {
				t.Errorf("the slowest client finished %.1f %% after the median one, want <= %.0f %%",
					(strag-1)*100, (tc.maxStrag-1)*100)
			}
		})
	}
}
