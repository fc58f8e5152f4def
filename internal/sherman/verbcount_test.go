package sherman

import "testing"

func tripsOf(t *testing.T, cl *Client, f func()) int64 {
	t.Helper()
	cl.DM().ResetStats()
	f()
	return cl.DM().Stats().Trips
}

// TestSearchTripCount pins the exact round trips of a point query on a
// tree with one internal level, once the root pointer is known: cold
// (cache off) = the internal node + the whole leaf; cached = the leaf
// alone; indirect adds the KV block. SearchBatch at depth 1 is the same
// op.
func TestSearchTripCount(t *testing.T) {
	const key = 300 * 7
	for _, tc := range []struct {
		name       string
		indirect   bool
		cacheBytes int64
		want       int64
	}{
		{"cold", false, 0, 2},
		{"cached", false, 64 << 20, 1},
		{"cold_indirect", true, 0, 3},
		{"cached_indirect", true, 64 << 20, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Indirect = tc.indirect
			cl := newSyncIndex(t, opts).NewComputeNode(tc.cacheBytes).NewClient()
			for i := uint64(1); i <= 500; i++ {
				if err := cl.Insert(i*7, val8(i)); err != nil {
					t.Fatal(err)
				}
			}
			if cl.rootLevel != 1 {
				t.Fatalf("tree has %d internal levels, the counts assume 1", cl.rootLevel)
			}
			got := tripsOf(t, cl, func() {
				if _, err := cl.Search(key); err != nil {
					t.Fatal(err)
				}
			})
			if got != tc.want {
				t.Errorf("Search cost %d trips, want %d", got, tc.want)
			}
			got = tripsOf(t, cl, func() {
				if _, errs := cl.SearchBatch([]uint64{key}, 1); errs[0] != nil {
					t.Fatal(errs[0])
				}
			})
			if got != tc.want {
				t.Errorf("SearchBatch(1 key, depth 1) cost %d trips, want %d", got, tc.want)
			}
		})
	}
}
