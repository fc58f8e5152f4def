package offroute

import (
	"errors"
	"fmt"

	"chime/internal/obs"
)

// OpState is where one op of a batch stands, as a Ring sees it.
type OpState uint8

const (
	OpRunnable OpState = iota // a verb in flight or a step to take
	OpParked                  // waits on another op, which wakes it (Ring.Wake)
	OpDone
)

// RingOps is what a Ring needs of an index's batch ops: Start admits
// input i and begins its op (which may finish at once), Step polls the
// verb a runnable op posted last and acts on it, and Finish takes a done
// op back and reports its input and result.
type RingOps[O any] interface {
	Start(i int) O
	Step(op O)
	State(op O) OpState
	Finish(op O) (i int, err error)
}

// ErrStalled is the result of an input whose op the index parked and
// never woke.
var ErrStalled = errors.New("index: batch op parked and never woken")

// Ring is the admit/step scheduler every batch op of both trees runs on:
// it admits ops in input order while fewer than depth are live, and
// steps the runnable ones in FIFO order until every admitted op is done.
// At depth 1 a step polls the verb the previous step posted, which is a
// synchronous verb. A client keeps one Ring per kind of op and reuses
// its storage. An op is in at most one of the run queue and the wake
// list, and only while live, so each holds depth ops.
type Ring[O comparable] struct {
	q       []O // run queue: a circular buffer of depth slots
	head, n int
	wake    []O // ops whose state changed while another op was stepped
	live    int
	errs    []error
}

// Free is a free list of a client's batch ops (or their parts), reused
// from batch to batch.
type Free[T any] []*T

// Get takes a reused element, or a new one.
func (f *Free[T]) Get() *T {
	n := len(*f)
	if n == 0 {
		return new(T)
	}
	t := (*f)[n-1]
	*f = (*f)[:n-1]
	return t
}

// Put hands t back for reuse.
func (f *Free[T]) Put(t *T) { *f = append(*f, t) }

// Write runs a write batch of n keys and as many values.
func (r *Ring[O]) Write(p *Port, n, values, depth int, ops RingOps[O]) []error {
	if values != n {
		errs, err := make([]error, n), fmt.Errorf("%s: write batch: %d keys but %d values", p.SpanPrefix, n, values)
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	return r.Run(p, ".write_batch", obs.OpBatchWrite, n, depth, ops)
}

// Run runs a batch of n ops, at most depth (at least 1) live at a time,
// inside the port's trace span "<prefix><name>" and a flight-ledger op
// of the class, and returns each input's result.
func (r *Ring[O]) Run(p *Port, name string, class obs.OpClass, n, depth int, ops RingOps[O]) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	depth = max(depth, 1)
	sp := p.Begin(name, class)
	if sp != nil {
		sp.Arg("keys", n)
		sp.Arg("depth", depth)
	}
	for i := range errs {
		errs[i] = ErrStalled
	}
	if cap(r.q) < depth {
		r.q, r.wake = make([]O, depth), make([]O, 0, depth)
	}
	r.q, r.head, r.n, r.live, r.errs = r.q[:depth], 0, 0, 0, errs
	for next := 0; ; {
		for ; next < n && r.live < depth; next++ {
			r.live++
			r.settle(ops, ops.Start(next))
		}
		op, ok := r.pop()
		if !ok {
			break // done, or every live op parked
		}
		ops.Step(op)
		r.settle(ops, op)
	}
	r.errs = nil
	p.End(sp)
	return errs
}

// settle files the op just started or stepped, then every op it woke.
func (r *Ring[O]) settle(ops RingOps[O], op O) {
	r.finish(ops, op)
	for _, w := range r.wake {
		r.finish(ops, w)
	}
	r.wake = r.wake[:0]
}

func (r *Ring[O]) finish(ops RingOps[O], op O) {
	if r.file(op, ops.State(op)) {
		i, err := ops.Finish(op)
		r.errs[i] = err
	}
}

// Wake files op again after its state changed while another op was
// being stepped.
//
//chime:noalloc
func (r *Ring[O]) Wake(op O) {
	if len(r.wake) == cap(r.wake) {
		panic("offroute: ring woke more ops than are live")
	}
	r.wake = r.wake[:len(r.wake)+1]
	r.wake[len(r.wake)-1] = op
}

// file queues a runnable op and counts a done one out; it reports done.
//
//chime:noalloc
func (r *Ring[O]) file(op O, st OpState) (done bool) {
	switch st {
	case OpDone:
		r.live--
		return true
	case OpRunnable:
		if r.n == len(r.q) {
			panic("offroute: ring queued more ops than are live")
		}
		r.q[(r.head+r.n)%len(r.q)] = op
		r.n++
	}
	return false
}

//chime:noalloc
func (r *Ring[O]) pop() (op O, ok bool) {
	if r.n == 0 {
		return op, false
	}
	op, r.head, r.n = r.q[r.head], (r.head+1)%len(r.q), r.n-1
	return op, true
}
