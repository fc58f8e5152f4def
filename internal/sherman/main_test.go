package sherman

import (
	"os"
	"testing"
)

// TestMain turns the path-lifetime guard on for the whole suite: every
// descent scribbles over its previous path when it begins again, so a
// split that propagates through a path it no longer owns finds poison
// parents instead of plausible ones.
func TestMain(m *testing.M) {
	poisonPaths = true
	os.Exit(m.Run())
}
