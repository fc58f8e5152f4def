package offroute

import (
	"errors"
	"testing"

	"chime/internal/dmsim"
)

// fakeOp takes steps steps to finish; a parked one waits for the op it
// follows to finish and is then woken with one step left.
type fakeOp struct {
	i, steps int
	parked   bool
	leader   *fakeOp
}

// fakeOps is a batch in which every odd input parks behind the input
// before it, the way a write joins another key's leaf cycle; never set,
// a parked op is never woken.
type fakeOps struct {
	r       *Ring[*fakeOp]
	never   bool
	live    []*fakeOp
	maxLive int
	order   []int // inputs in the order they were stepped
	done    []int
}

func (f *fakeOps) Start(i int) *fakeOp {
	op := &fakeOp{i: i, steps: 2}
	if i%2 == 1 && len(f.live) > 0 {
		op.parked, op.leader = true, f.live[len(f.live)-1]
	}
	f.live = append(f.live, op)
	f.maxLive = max(f.maxLive, len(f.live))
	return op
}

func (f *fakeOps) Step(op *fakeOp) {
	f.order = append(f.order, op.i)
	if op.steps--; op.steps > 0 {
		return
	}
	for _, o := range f.live {
		if o.parked && o.leader == op && !f.never {
			o.parked, o.steps = false, 1
			f.r.Wake(o)
		}
	}
}

func (f *fakeOps) State(op *fakeOp) OpState {
	switch {
	case op.parked:
		return OpParked
	case op.steps == 0:
		return OpDone
	}
	return OpRunnable
}

func (f *fakeOps) Finish(op *fakeOp) (int, error) {
	for j, o := range f.live {
		if o == op {
			f.live = append(f.live[:j], f.live[j+1:]...)
			break
		}
	}
	f.done = append(f.done, op.i)
	return op.i, nil
}

// TestRingAdmitsStepsAndWakes: the ring keeps at most depth ops live,
// steps the runnable ones in FIFO order, files a woken op again, and
// reports ErrStalled for every input whose op never finished.
func TestRingAdmitsStepsAndWakes(t *testing.T) {
	var r Ring[*fakeOp]
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 1 << 20
	p := &Port{DC: dmsim.MustNewFabric(cfg).NewClient(), SpanPrefix: "fake"}
	f := &fakeOps{r: &r}
	errs := r.Write(p, 6, 6, 3, f)
	for i, err := range errs {
		if err != nil {
			t.Errorf("input %d: %v", i, err)
		}
	}
	if f.maxLive > 3 {
		t.Errorf("%d ops live at once, depth 3", f.maxLive)
	}
	// 0 and 2 runnable, 1 parked behind 0: 0's last step wakes 1, which
	// takes one more, as 3 does behind 2 and 5 behind 4.
	want := []int{0, 2, 0, 2, 1, 3, 4, 4, 5}
	if len(f.order) != len(want) {
		t.Fatalf("step order %v, want %v", f.order, want)
	}
	for i := range want {
		if f.order[i] != want[i] {
			t.Fatalf("step order %v, want %v", f.order, want)
		}
	}

	// The ring is reused: a batch whose parked ops are never woken stops
	// with them unfinished.
	f = &fakeOps{r: &r, never: true}
	errs = r.Write(p, 4, 4, 2, f)
	for i, err := range errs {
		if stalled := errors.Is(err, ErrStalled); stalled != (i%2 == 1) {
			t.Errorf("input %d: %v", i, err)
		}
	}

	if errs := r.Write(p, 2, 1, 1, f); errs[0] == nil || errs[1] == nil {
		t.Errorf("2 keys with 1 value: %v", errs)
	}
}
