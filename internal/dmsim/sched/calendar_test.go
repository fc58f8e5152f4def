package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func drainBelow(c *Calendar, limit int64) []int32 {
	var out []int32
	for {
		s := c.PopBelow(limit)
		if s == NoSlot {
			return out
		}
		out = append(out, s)
	}
}

func TestCalendarBasicOrder(t *testing.T) {
	var c Calendar
	c.Grow(5)
	c.Push(0, 2500)
	c.Push(1, 500)
	c.Push(2, 1500)
	c.Push(3, 900)
	c.Push(4, 500) // ties with slot 1: the lower slot pops first

	if got := c.MinKey(); got != 500 {
		t.Fatalf("MinKey = %d, want 500", got)
	}
	// Window [0, 1000): clock order, slot order among equal clocks.
	got := drainBelow(&c, 1000)
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 3 {
		t.Fatalf("drain below 1000 = %v, want [1 4 3]", got)
	}
	if got := c.MinKey(); got != 1500 {
		t.Fatalf("MinKey after first window = %d, want 1500", got)
	}
	// A key behind everything parked (a member whose clock lags the
	// cohort) pops first on the next harvest, by its true key.
	c.Push(1, 700)
	got = drainBelow(&c, 3000)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("drain below 3000 = %v, want [1 2 0]", got)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if got := c.MinKey(); got != math.MaxInt64 {
		t.Fatalf("MinKey on empty = %d, want MaxInt64", got)
	}
	if got := c.PopBelow(math.MaxInt64); got != NoSlot {
		t.Fatalf("PopBelow on empty = %d, want NoSlot", got)
	}
}

func TestCalendarPushParkedPanics(t *testing.T) {
	var c Calendar
	c.Grow(1)
	c.Push(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double Push did not panic")
		}
	}()
	c.Push(0, 20)
}

// The calendar is a priority queue on (key, slot): against seeded
// random scripts of pushes and window harvests — keys spread over many
// windows, bunched on a few values so ties are common, lagging behind
// what was already popped, and far in the future — every harvest must
// return exactly what sorting the model's parked set by (key, slot)
// and cutting it at the limit returns.
func TestCalendarRandomizedAgainstModel(t *testing.T) {
	const n = 300
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c Calendar
		c.Grow(n)
		type entry struct {
			slot int32
			key  int64
		}
		var model []entry
		parked := make([]bool, n)
		limit := int64(0)
		for step := 0; step < 2000; step++ {
			if s := int32(rng.Intn(n)); !parked[s] && rng.Intn(3) > 0 {
				var key int64
				switch rng.Intn(4) {
				case 0:
					key = limit + rng.Int63n(20_000)
				case 1:
					key = limit + 1000*rng.Int63n(4) // ties
				case 2:
					key = rng.Int63n(limit + 1) // lagging
				default:
					key = limit + rng.Int63n(1<<40)
				}
				c.Push(s, key)
				model = append(model, entry{s, key})
				parked[s] = true
				continue
			}
			limit += rng.Int63n(3000)
			sort.Slice(model, func(i, j int) bool {
				if model[i].key != model[j].key {
					return model[i].key < model[j].key
				}
				return model[i].slot < model[j].slot
			})
			if len(model) > 0 && c.MinKey() != model[0].key {
				t.Fatalf("seed %d step %d: MinKey = %d, model %d", seed, step, c.MinKey(), model[0].key)
			}
			// Harvest at most a few, so entries stay parked across limits.
			for k := rng.Intn(8); k > 0; k-- {
				got := c.PopBelow(limit)
				want := NoSlot
				if len(model) > 0 && model[0].key < limit {
					want = model[0].slot
					parked[want] = false
					model = model[1:]
				}
				if got != want {
					t.Fatalf("seed %d step %d: PopBelow(%d) = %d, model %d", seed, step, limit, got, want)
				}
			}
			if c.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, c.Len(), len(model))
			}
		}
	}
}

// Pop order is a pure function of the set of parked (key, slot) pairs:
// the same set pushed in two different orders drains identically. This
// is what lets the event loop file members that parked concurrently in
// whatever order the host produced them.
func TestCalendarDeterministicDrainOrder(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = 500 * rng.Int63n(40) // 40 distinct clocks: ties everywhere
	}
	build := func(order []int) *Calendar {
		c := new(Calendar)
		c.Grow(n)
		for _, s := range order {
			c.Push(int32(s), keys[s])
		}
		return c
	}
	a, b := build(rng.Perm(n)), build(rng.Perm(n))
	var orderA, orderB []int32
	for w := int64(500); w <= 21_000; w += 500 {
		orderA = append(orderA, drainBelow(a, w)...)
		orderB = append(orderB, drainBelow(b, w)...)
	}
	if len(orderA) != n || len(orderB) != n {
		t.Fatalf("drained %d/%d slots, want %d each", len(orderA), len(orderB), n)
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("drain order diverged at %d: %d vs %d", i, orderA[i], orderB[i])
		}
		if i > 0 {
			p, s := orderA[i-1], orderA[i]
			if keys[p] > keys[s] || keys[p] == keys[s] && p > s {
				t.Fatalf("drain position %d: (%d, slot %d) after (%d, slot %d)", i, keys[s], s, keys[p], p)
			}
		}
	}
}

// Push and PopBelow write into the capacity Grow reserved.
func TestCalendarZeroAllocs(t *testing.T) {
	var c Calendar
	c.Grow(64)
	key := int64(0)
	if avg := testing.AllocsPerRun(100, func() {
		for s := int32(0); s < 64; s++ {
			key += 37
			c.Push(s, key%1000)
		}
		for c.PopBelow(math.MaxInt64) != NoSlot {
		}
	}); avg != 0 {
		t.Fatalf("push/pop cycle allocated %.1f times", avg)
	}
}
