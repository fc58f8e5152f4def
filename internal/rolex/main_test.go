package rolex

import (
	"flag"
	"os"
	"testing"
)

// TestMain turns the lifetime guard on for the whole suite: every leaf
// image an owner recycles for its next fill (a client's group images,
// the MN program's) is scribbled with 0xA5 and replaced, so anything read
// through an image its owner has moved on from — a value, a chain
// pointer, a bitmap — is a5a5… or mn165: instead of the next leaf's
// plausible bytes. A -bench run leaves it off: the scribble and the
// fresh image are not part of what the benchmarks measure.
func TestMain(m *testing.M) {
	flag.Parse()
	poisonRecycled = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}
