package sherman

import (
	"flag"
	"os"
	"testing"
)

// TestMain turns the lifetime guard on for the whole suite: every image
// an owner recycles for its next fill is scribbled with 0xA5 and replaced
// (client leaf/inner read and build images, a search op's leaf image, a
// write cycle's, the MN program's), and every descent scribbles over its
// previous path when it begins again. Anything read through an image or
// a path its owner has moved on from — a value, a fence, a parent — is
// then a5a5…, level 165 or mn165:, instead of the next node's plausible
// bytes. A -bench run leaves it off: the scribble and the fresh image
// are not part of what the benchmarks measure.
func TestMain(m *testing.M) {
	flag.Parse()
	poisonRecycled = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}
