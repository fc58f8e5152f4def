package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"chime/internal/ycsb"
)

// span is one op as the driver saw it from outside the index: the
// parent span covers gen.Next plus the client call, its ycsb.next child
// covers gen.Next alone, so the parent's self time is the call into the
// index. Virtual times bracket the call; host times are ns since the
// tracer's origin.
type span struct {
	round, client, seq int32
	kind               ycsb.OpKind
	simStart, simEnd   int64
	hostStart          int64
	nextEnd            int64
	hostEnd            int64
}

func (s span) simNs() int64      { return s.simEnd - s.simStart }
func (s span) nextHostNs() int64 { return s.nextEnd - s.hostStart }
func (s span) callHostNs() int64 { return s.hostEnd - s.nextEnd }

// clientSpans is one client's span buffer for one round. Only that
// client's goroutine appends to it, into capacity reserved beforehand.
type clientSpans struct {
	origin        time.Time
	round, client int32
	spans         []span
}

func (c *clientSpans) add(kind ycsb.OpKind, sim0, sim1 int64, h0, h1, h2 time.Time) {
	c.spans = append(c.spans, span{
		round: c.round, client: c.client, seq: int32(len(c.spans)), kind: kind,
		simStart: sim0, simEnd: sim1,
		hostStart: h0.Sub(c.origin).Nanoseconds(),
		nextEnd:   h1.Sub(c.origin).Nanoseconds(),
		hostEnd:   h2.Sub(c.origin).Nanoseconds(),
	})
}

// tracer keeps every span of a traced phase in memory; nothing is
// written until the run is over.
type tracer struct {
	origin time.Time
	bufs   []*clientSpans
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin reserves one buffer per client for a round, outside the measured
// window.
func (t *tracer) begin(round, clients, perClient int) []*clientSpans {
	cur := make([]*clientSpans, clients)
	for ci := range cur {
		cur[ci] = &clientSpans{
			origin: t.origin, round: int32(round), client: int32(ci),
			spans: make([]span, 0, perClient),
		}
	}
	t.bufs = append(t.bufs, cur...)
	return cur
}

func (t *tracer) all() []span {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	out := make([]span, 0, n)
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// kindMean is the per-op-kind mean of host time spent in
// gen.Next and in the client call, and of virtual time.
type kindMean struct {
	ops                  int64
	nextHostNs, callHost float64
	simNs                float64
}

func meansByKind(spans []span) map[ycsb.OpKind]kindMean {
	sums := map[ycsb.OpKind]kindMean{}
	for _, s := range spans {
		m := sums[s.kind]
		m.ops++
		m.nextHostNs += float64(s.nextHostNs())
		m.callHost += float64(s.callHostNs())
		m.simNs += float64(s.simNs())
		sums[s.kind] = m
	}
	for k, m := range sums {
		n := float64(m.ops)
		sums[k] = kindMean{ops: m.ops, nextHostNs: m.nextHostNs / n, callHost: m.callHost / n, simNs: m.simNs / n}
	}
	return sums
}

const (
	maxSampledSpans = 50_000
	slowestPerKind  = 100
)

// writeTrace writes the trace as JSON lines: one summary line per op
// kind over every span, then at most maxSampledSpans evenly sampled
// spans plus the slowestPerKind slowest (in virtual time) of each kind,
// each followed by its ycsb.next child.
func writeTrace(path, workload string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)

	means := meansByKind(spans)
	kinds := make([]ycsb.OpKind, 0, len(means))
	for k := range means {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		m := means[k]
		if err := enc.Encode(map[string]any{
			"type": "summary", "workload": workload, "kind": k.String(), "ops": m.ops,
			"mean_sim_ns": m.simNs, "mean_call_host_ns": m.callHost, "mean_next_host_ns": m.nextHostNs,
		}); err != nil {
			return err
		}
	}

	keep := make(map[int]string, maxSampledSpans+slowestPerKind*len(kinds))
	stride := (len(spans) + maxSampledSpans - 1) / maxSampledSpans
	for i := 0; i < len(spans); i += max(stride, 1) {
		keep[i] = "sampled"
	}
	for _, k := range kinds {
		var idx []int
		for i, s := range spans {
			if s.kind == k {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].simNs() > spans[idx[b]].simNs() })
		for _, i := range idx[:min(slowestPerKind, len(idx))] {
			keep[i] = "slowest"
		}
	}
	order := make([]int, 0, len(keep))
	for i := range keep {
		order = append(order, i)
	}
	sort.Ints(order)
	for _, i := range order {
		s := spans[i]
		id := fmt.Sprintf("r%d.c%d.%d", s.round, s.client, s.seq)
		if err := enc.Encode(map[string]any{
			"type": "span", "name": "op", "id": id, "why": keep[i],
			"workload": workload, "client": s.client, "round": s.round, "seq": s.seq, "kind": s.kind.String(),
			"sim_start": s.simStart, "sim_end": s.simEnd, "host_start": s.hostStart, "host_end": s.hostEnd,
		}); err != nil {
			return err
		}
		if err := enc.Encode(map[string]any{
			"type": "span", "name": "ycsb.next", "parent": id,
			"host_start": s.hostStart, "host_end": s.nextEnd,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
