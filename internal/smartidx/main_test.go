package smartidx

import (
	"flag"
	"os"
	"testing"
)

// TestMain turns the lifetime guard on for the whole suite: whenever an
// owner fetches a node, every node it fetched before (and the cache did
// not take) is scribbled with 0xA5 and replaced, so anything read from a
// node after its owner moved on — a child word, a header — is a5a5…, an
// invalid node at depth 165, instead of a plausible neighbour. A -bench
// run leaves it off: the scribble and the fresh image are not part of
// what the benchmarks measure.
func TestMain(m *testing.M) {
	flag.Parse()
	poisonRecycled = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}
