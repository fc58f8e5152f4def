// Package testsupport holds the measuring helpers the index packages'
// tests share. It is imported only from _test.go files.
package testsupport

import (
	"reflect"
	"runtime"
	"slices"

	"chime/internal/dmsim"
)

// AllocRounds and AllocRoundOps shape AllocsPerOp: the median of
// AllocRounds rounds of AllocRoundOps calls each.
const AllocRounds, AllocRoundOps = 9, 20

// AllocsPerOp counts the heap objects one call of op allocates: the
// median, over AllocRounds rounds of AllocRoundOps calls, of each
// round's mean. Between calls, outside the count, reset runs (nil for
// none), with the same running index as op. A GC that empties a pool
// mid-count costs the round it lands in a refill, a few objects, and the
// median does not see that round: an allocating op shows in every round.
// It runs at GOMAXPROCS 1, so no other goroutine's allocations land in a
// count.
func AllocsPerOp(op, reset func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	means := make([]float64, AllocRounds)
	for r := range means {
		var total uint64
		for j := 0; j < AllocRoundOps; j++ {
			i := r*AllocRoundOps + j
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			op(i)
			runtime.ReadMemStats(&ms)
			total += ms.Mallocs - before
			if reset != nil {
				reset(i)
			}
		}
		means[r] = float64(total) / AllocRoundOps
	}
	slices.Sort(means)
	return means[AllocRounds/2]
}

// CompletionPool reads two unexported fields of a fabric client: the
// length of its completion free list, and how many handles it allocated
// because that list was empty. A write that polls a completion and never
// releases it leaves the list one short, so the next verb allocates.
func CompletionPool(dc *dmsim.Client) (free int, allocated int64) {
	v := reflect.ValueOf(dc).Elem()
	return v.FieldByName("free").Len(), v.FieldByName("completionAllocs").Int()
}
