package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"chime/internal/bench"
	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

// updateVersion is the FillValue version every update and insert
// writes; a read must return the load value (zeros) or this one.
const updateVersion = 1

// instance is one built, loaded and warmed system plus the client cohort
// that drives it. The cohort is created once and reused by every round,
// so a run allocates one chunk per client however many rounds it fits.
type instance struct {
	w   workload
	fab *dmsim.Fabric
	sys bench.System
	obs *bench.Observer // nil on the untraced instance
	ks  *ycsb.KeySpace

	loadKeys []uint64 // sorted
	zero     []byte

	clients []bench.Client
	gens    []*ycsb.Generator // one per client; a round goes on where the last stopped
	round   int               // rounds run so far; warm-up rounds come first

	ref *speedRef // sampled between measured windows

	setup setupTimes
}

// setupTimes splits set-up by layer; total is the end-to-end setup_s.
// The times are raw; refFrom and refTo are the host-speed kernel runs
// made before the set-up began and by its end.
type setupTimes struct {
	fabricS, loadS, warmS float64
	loadSimNs             int64
	refFrom, refTo        int
}

// slowdown is the host's slowdown over the set-up: from the sample it
// began with to the one that followed it.
func (s setupTimes) slowdown(ref *speedRef) float64 {
	return ref.slowdownOver(s.refFrom, s.refTo+refRepeats)
}

func (s setupTimes) total() float64 { return s.fabricS + s.loadS + s.warmS }

// newInstance builds a fresh fabric and system for w, bulk-loads it and
// warms it with seed's op stream. With observe set, the system is wired
// to an observer with a flight recorder (the traced configuration).
func newInstance(w workload, seed int64, observe bool, ref *speedRef) (*instance, error) {
	factory, ok := bench.Factories[w.system]
	if !ok {
		return nil, fmt.Errorf("unknown system %q", w.system)
	}
	// Return the previous instance's memory first, so that repeated
	// set-ups in one process start from the same heap.
	runtime.GC()
	debug.FreeOSMemory()

	in := &instance{w: w, zero: make([]byte, valueSize), ref: ref}
	in.setup.refFrom = ref.runs()
	ref.sample()
	t0 := time.Now()
	// The default fabric (1 MN, 256 MiB) with the allocation chunk the
	// repo's experiments use: one 1 MiB chunk per inserting client.
	cfg := dmsim.DefaultConfig()
	cfg.ChunkBytes = 1 << 20
	fab, err := dmsim.NewFabric(cfg)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	in.fab = fab
	if observe {
		in.obs = bench.NewObserver(false)
		in.obs.EnableFlightRecorder(obs.FlightConfig{})
		fab.SetObserver(in.obs.Sink())
	}
	in.loadKeys = bench.SortedLoadKeys(w.loadN)
	t1 := time.Now()
	in.setup.fabricS = t1.Sub(t0).Seconds()

	in.sys, err = factory(bench.SystemConfig{
		Fabric:       fab,
		LoadKeys:     in.loadKeys,
		ValueSize:    valueSize,
		CacheBytes:   w.cacheBytes,
		HotspotBytes: w.hotspotBytes,
		DisableRDWC:  w.disableRDWC,
		// One loader: the tree is then the same on every run, which the
		// solo.* fingerprint needs, and the load costs half the host time.
		LoadClients: 1,
		Obs:         in.obs,
	})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.system, err)
	}
	t2 := time.Now()
	in.setup.loadS = t2.Sub(t1).Seconds()
	in.setup.loadSimNs = fab.Frontier()
	ref.sample()
	t2 = time.Now()

	in.ks = bench.NewKeySpaceFor(in.loadKeys)
	in.clients = make([]bench.Client, w.clients)
	in.gens = make([]*ycsb.Generator, w.clients)
	for ci := range in.clients {
		in.clients[ci] = in.sys.NewClient()
		// One generator per client for the whole run: building a Zipfian
		// one costs 5 ms of host time at this key count.
		if in.gens[ci], err = ycsb.NewGenerator(w.mix, in.ks, genSeed(seed, ci)); err != nil {
			return nil, err
		}
		if w.batch > 0 {
			if _, ok := in.clients[ci].(bench.BatchSearcher); !ok {
				return nil, fmt.Errorf("%s clients do not implement SearchBatch", w.system)
			}
		}
	}
	for i := 0; i < w.warmRounds; i++ {
		r := in.runRound(nil)
		if r.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", r.failed, r.ops, r.firstErr)
		}
	}
	in.setup.warmS = time.Since(t2).Seconds()
	in.setup.refTo = ref.runs()
	return in, nil
}

// genSeed derives the generator seed of client ci: the run's seed feeds
// the generators and nothing else.
func genSeed(seed int64, ci int) int64 {
	return seed + int64(ci)*7919
}

// roundResult is one measured round of the whole cohort.
type roundResult struct {
	ops, failed int64
	firstErr    error

	simNs   int64   // slowest client's virtual duration
	refAt   int     // host-speed kernel runs made before the round began
	slow    float64 // host slowdown around the round; set once it is bracketed
	wallNs  int64
	cpuNs   int64
	mallocs uint64
	bytes   uint64
	gcs     uint32

	stats  dmsim.ClientStats // summed over clients
	nicDur dmsim.NICStats    // fabric NIC counters over the round

	// lat[c] holds the exact virtual latency of every op of class c
	// (one sample per batch, amortised per key, on a batch workload).
	lat [numClasses][]int64
}

// clientRound is what one client's goroutine produces in one round.
type clientRound struct {
	lat      []int64 // one per op, or per batch
	class    []opClass
	ops      int64
	failed   int64
	firstErr error
	simNs    int64
	stats    dmsim.ClientStats
}

// runRound drives every client through perClient ops, closed loop: all
// clients sit at one virtual epoch and join the cohort before the first
// op, each draws from its own generator, and each leaves the cohort when
// done. With tr set every op also records a span.
func (in *instance) runRound(tr *tracer) roundResult {
	w := in.w
	round := in.round
	in.round++

	// Bring the cohort to one epoch: a client that finished the previous
	// round early idles until the slowest one is done.
	epoch := in.fab.Frontier()
	for _, cl := range in.clients {
		epoch = max(epoch, cl.DM().Now())
	}
	outs := make([]clientRound, w.clients)
	for ci := range outs {
		outs[ci] = w.newClientRound(w.perClient)
	}
	for _, cl := range in.clients {
		dm := cl.DM()
		dm.Advance(epoch - dm.Now())
		dm.JoinCohort()
	}
	if rec := in.obs.Sink().FlightRecorder(); rec != nil && round == w.warmRounds {
		// Attribution covers the measured rounds only.
		rec.Reset(in.fab.Frontier())
	}
	spans := make([]*clientSpans, w.clients) // nil: no tracing
	if tr != nil {
		spans = tr.begin(round, w.clients, len(outs[0].lat))
	}
	in.ref.sample()
	refAt := in.ref.runs()
	nicBefore := in.fab.TotalNICStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTimeNs()
	t0 := time.Now()

	var wg sync.WaitGroup
	for ci := range in.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := in.clients[ci]
			defer cl.DM().LeaveCohort()
			in.clientLoop(cl, in.gens[ci], w.perClient, &outs[ci], spans[ci])
		}(ci)
	}
	wg.Wait()

	res := roundResult{wallNs: time.Since(t0).Nanoseconds(), cpuNs: cpuTimeNs() - cpu0, refAt: refAt}
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcs = ms1.NumGC - ms0.NumGC
	nicAfter := in.fab.TotalNICStats()
	res.nicDur = dmsim.NICStats{
		Verbs:    nicAfter.Verbs - nicBefore.Verbs,
		QueuedNs: nicAfter.QueuedNs - nicBefore.QueuedNs,
		ServedNs: nicAfter.ServedNs - nicBefore.ServedNs,
	}
	for ci := range outs {
		o := &outs[ci]
		res.ops += o.ops
		res.failed += o.failed
		if res.firstErr == nil {
			res.firstErr = o.firstErr
		}
		res.simNs = max(res.simNs, o.simNs)
		addStats(&res.stats, o.stats)
		for i, ns := range o.lat {
			res.lat[o.class[i]] = append(res.lat[o.class[i]], ns)
		}
	}
	return res
}

// addStats adds the traffic counters the metrics use.
func addStats(to *dmsim.ClientStats, s dmsim.ClientStats) {
	to.Trips += s.Trips
	to.Reads += s.Reads
	to.Writes += s.Writes
	to.Atomics += s.Atomics
	to.RPCs += s.RPCs
	to.BytesRead += s.BytesRead
	to.BytesWritten += s.BytesWritten
}

// fail records one failed op.
func (o *clientRound) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// newClientRound reserves the sample buffers for n ops of one client.
func (w workload) newClientRound(n int) clientRound {
	if w.batch > 0 {
		n /= w.batch
	}
	return clientRound{lat: make([]int64, n), class: make([]opClass, n)}
}

// clientLoop issues n ops (keys, on a batch workload) from gen.
func (in *instance) clientLoop(cl bench.Client, gen *ycsb.Generator, n int, o *clientRound, sp *clientSpans) {
	if in.w.batch > 0 {
		in.batchLoop(cl, gen, n, o, sp)
	} else {
		in.opLoop(cl, gen, n, o, sp)
	}
}

// opLoop is the synchronous client loop: one generated op, one client
// call, one check of what came back.
func (in *instance) opLoop(cl bench.Client, gen *ycsb.Generator, n int, o *clientRound, sp *clientSpans) {
	dm := cl.DM()
	dm.ResetStats()
	start := dm.Now()
	for i := 0; i < n; i++ {
		var h0, h1, h2 time.Time
		if sp != nil {
			h0 = time.Now()
		}
		op := gen.Next()
		if sp != nil {
			h1 = time.Now()
		}
		t0 := dm.Now()
		err := in.doOp(cl, op)
		t1 := dm.Now()
		if sp != nil {
			h2 = time.Now()
			sp.add(op.Kind, t0, t1, h0, h1, h2)
		}
		if err != nil {
			o.fail(fmt.Errorf("client %d op %d: %w", dm.ID(), i, err))
		}
		o.lat[i], o.class[i] = t1-t0, classOf(op.Kind)
	}
	o.ops = int64(n)
	o.simNs = dm.Now() - start
	o.stats = dm.Stats()
}

// doOp issues one op and verifies its result. A not-found is legitimate
// only for a key outside the loaded set (an insert another client has
// claimed but not finished).
func (in *instance) doOp(cl bench.Client, op ycsb.Op) error {
	switch op.Kind {
	case ycsb.OpRead:
		v, err := cl.Search(op.Key)
		return in.checkRead(op.Key, v, err)
	case ycsb.OpUpdate:
		err := cl.Update(op.Key, ycsb.FillValue(op.Key, valueSize, updateVersion))
		return in.checkNotFound(op.Key, err)
	case ycsb.OpInsert:
		return cl.Insert(op.Key, ycsb.FillValue(op.Key, valueSize, updateVersion))
	case ycsb.OpScan:
		n, err := cl.Scan(op.Key, op.ScanLen)
		if err != nil {
			return err
		}
		return in.checkScan(op.Key, op.ScanLen, n)
	default:
		return fmt.Errorf("op kind %v is not part of any workload", op.Kind)
	}
}

func (in *instance) checkNotFound(key uint64, err error) error {
	if errors.Is(err, bench.ErrNotFound) {
		if i := in.firstAtOrAfter(key); i < len(in.loadKeys) && in.loadKeys[i] == key {
			return fmt.Errorf("loaded key %#x not found", key)
		}
		return nil
	}
	return err
}

func (in *instance) checkRead(key uint64, v []byte, err error) error {
	if err != nil {
		return in.checkNotFound(key, err)
	}
	if bytes.Equal(v, in.zero) || bytes.Equal(v, ycsb.FillValue(key, valueSize, updateVersion)) {
		return nil
	}
	return fmt.Errorf("key %#x: value %x is neither the load value nor the update value", key, v)
}

// firstAtOrAfter is the index of the first loaded key >= key.
func (in *instance) firstAtOrAfter(key uint64) int {
	return sort.Search(len(in.loadKeys), func(i int) bool { return in.loadKeys[i] >= key })
}

// checkScan bounds a scan's item count: never more than asked, and
// exactly what was asked whenever that many loaded keys lie at or after
// the start key (inserts only add to them).
func (in *instance) checkScan(start uint64, want, got int) error {
	atLeast := min(want, len(in.loadKeys)-in.firstAtOrAfter(start))
	if got < atLeast || got > want {
		return fmt.Errorf("scan(%#x, %d) returned %d items, want %d..%d", start, want, got, atLeast, want)
	}
	return nil
}

// batchLoop issues SearchBatch calls of w.batch keys at w.depth. The
// batch's virtual time is amortised over its keys, one sample per batch.
func (in *instance) batchLoop(cl bench.Client, gen *ycsb.Generator, n int, o *clientRound, sp *clientSpans) {
	w := in.w
	bs := cl.(bench.BatchSearcher)
	dm := cl.DM()
	dm.ResetStats()
	start := dm.Now()
	keys := make([]uint64, w.batch)
	for b := 0; b < n/w.batch; b++ {
		var h0, h1, h2 time.Time
		if sp != nil {
			h0 = time.Now()
		}
		for i := range keys {
			keys[i] = gen.Next().Key
		}
		if sp != nil {
			h1 = time.Now()
		}
		t0 := dm.Now()
		vals, errs := bs.SearchBatch(keys, w.depth)
		t1 := dm.Now()
		if sp != nil {
			h2 = time.Now()
			sp.add(ycsb.OpRead, t0, t1, h0, h1, h2)
		}
		for i, k := range keys {
			if err := in.checkRead(k, vals[i], errs[i]); err != nil {
				o.fail(fmt.Errorf("client %d batch %d: %w", dm.ID(), b, err))
			}
		}
		o.lat[b], o.class[b] = (t1-t0)/int64(w.batch), classRead
		o.ops += int64(w.batch)
	}
	o.simNs = dm.Now() - start
	o.stats = dm.Stats()
}

// verify checks the store after a run: a census scan must count every
// loaded and every inserted key, and 1000 keys spread over the load set
// must read back. It returns ops attempted and failed.
func (in *instance) verify() (attempted, failed int64, firstErr error) {
	cl := in.sys.NewClient()
	note := func(err error) {
		attempted++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	want := int(in.ks.Count())
	n, err := cl.Scan(0, want+1)
	if err == nil && n != want {
		err = fmt.Errorf("census scan counted %d keys, want %d (loaded %d + inserted %d)",
			n, want, len(in.loadKeys), want-len(in.loadKeys))
	}
	note(err)
	const readBack = 1000
	for i := 0; i < readBack; i++ {
		k := in.loadKeys[i*len(in.loadKeys)/readBack]
		v, err := cl.Search(k)
		note(in.checkRead(k, v, err))
	}
	return attempted, failed, firstErr
}
