package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

// The single-layer passes of the traced run. Each drives one layer alone
// through its public functions, so its host time is that layer's CPU
// time and nothing else's.

// soloResult is one client replaying the mix alone on the warmed system.
// Alone in its cohort it never parks, so span time is CPU time; its
// virtual counts depend on no host interleaving.
type soloResult struct {
	ops    int64
	failed int64
	err    error

	byKind      map[ycsb.OpKind]kindMean
	hostNsOp    float64 // gen.Next plus the client call, per op
	simNsOp     float64
	tripsOp     float64
	readBytesOp float64
}

const soloMaxOps = 20_000

func (in *instance) soloPass(seed int64) soloResult {
	w := in.w
	n := min(soloMaxOps, w.perClient*w.clients)
	cl := in.sys.NewClient()
	gen, err := ycsb.NewGenerator(w.mix, in.ks, seed-1)
	if err != nil {
		return soloResult{ops: 1, failed: 1, err: err}
	}
	o := w.newClientRound(n)
	sp := &clientSpans{origin: time.Now(), round: -1, spans: make([]span, 0, len(o.lat))}
	cl.DM().JoinCohort()
	in.clientLoop(cl, gen, n, &o, sp)
	cl.DM().LeaveCohort()

	res := soloResult{ops: o.ops, failed: o.failed, err: o.firstErr, byKind: meansByKind(sp.spans)}
	var host int64
	for _, s := range sp.spans {
		host += s.hostEnd - s.hostStart
	}
	ops := float64(o.ops)
	res.hostNsOp = float64(host) / ops
	res.simNsOp = float64(o.simNs) / ops
	res.tripsOp = float64(o.stats.Trips) / ops
	res.readBytesOp = float64(o.stats.BytesRead) / ops
	return res
}

// ycsbLoop times the generator alone over the workload's mix, on a
// keyspace of its own so that its inserts claim nothing from the run's.
func ycsbLoop(w workload, seed int64) (hostNs, allocs float64, err error) {
	const n = 200_000
	gen, err := ycsb.NewGenerator(w.mix, ycsb.NewKeySpace(uint64(w.loadN)), seed)
	if err != nil {
		return 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var sink uint64
	for i := 0; i < n; i++ {
		sink += gen.Next().Key
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if sink == 0 {
		return 0, 0, fmt.Errorf("ycsb loop generated only zero keys")
	}
	return float64(el.Nanoseconds()) / n, float64(ms1.Mallocs-ms0.Mallocs) / n, nil
}

// verbResult is the dmsim verb path measured without any index on top.
type verbResult struct {
	soloHostNs  float64 // one client, 64 B reads
	soloAllocs  float64
	cohortCPUNs float64 // CPU ns per read with `clients` clients in one cohort
}

// verbLoops issues 64 B reads on a region obtained from the allocation
// RPC: first from one client, then from a cohort of the workload's size,
// where the difference is what the cohort scheduler costs per verb.
func verbLoops(fab *dmsim.Fabric, clients int) (verbResult, error) {
	const (
		region    = 1 << 20
		soloReads = 200_000
		perMember = 2_000
	)
	var res verbResult
	c := fab.NewClient()
	base, err := c.AllocRPC(0, region)
	if err != nil {
		return res, err
	}
	read := func(c *dmsim.Client, n int) error {
		buf := make([]byte, 64)
		for i := 0; i < n; i++ {
			if err := c.Read(base.Add(uint64(i%(region/64))*64), buf); err != nil {
				return err
			}
		}
		return nil
	}

	var ms0, ms1 runtime.MemStats
	c.JoinCohort()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	err = read(c, soloReads)
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	c.LeaveCohort()
	if err != nil {
		return res, err
	}
	res.soloHostNs = float64(el.Nanoseconds()) / soloReads
	res.soloAllocs = float64(ms1.Mallocs-ms0.Mallocs) / soloReads

	members := make([]*dmsim.Client, clients)
	for i := range members {
		members[i] = fab.NewClient()
		members[i].JoinCohort()
	}
	errs := make([]error, clients)
	cpu0 := cpuTimeNs()
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *dmsim.Client) {
			defer wg.Done()
			defer m.LeaveCohort()
			errs[i] = read(m, perMember)
		}(i, m)
	}
	wg.Wait()
	res.cohortCPUNs = float64(cpuTimeNs()-cpu0) / float64(clients*perMember)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
