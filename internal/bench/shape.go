package bench

import (
	"fmt"
	"strings"
)

// shapeLevels bounds the levels a Shape records: a tree of span-64
// nodes eight levels high holds more keys than any fabric here has bytes.
const shapeLevels = 8

// Shape is what one census walk of a B-tree index finds: how many
// levels, how many nodes on each, and how full the leaves are. It is what
// every cache-byte and wire-byte figure is a function of, and what a load
// order silently decides (a sorted load through median splits leaves
// every node half empty). The zero value means the system is not a
// B-tree (SMART, ROLEX).
type Shape struct {
	Levels int              // the leaf level included
	Nodes  [shapeLevels]int // per level, leaves first; zero from Levels up
	Keys   int              // in all leaves
}

// KeysPerLeaf is the mean leaf occupancy.
func (s Shape) KeysPerLeaf() float64 {
	if s.Nodes[0] == 0 {
		return 0
	}
	return float64(s.Keys) / float64(s.Nodes[0])
}

// String renders the shape on one line, the root first.
func (s Shape) String() string {
	if s.Levels == 0 {
		return "not a B-tree"
	}
	nodes := make([]string, s.Levels)
	for l := range nodes {
		nodes[s.Levels-1-l] = fmt.Sprint(s.Nodes[l])
	}
	return fmt.Sprintf("%d levels, %s nodes (root first), %d keys, %.1f keys/leaf",
		s.Levels, strings.Join(nodes, "/"), s.Keys, s.KeysPerLeaf())
}

// censusTaker is a system whose index can count its own nodes out of
// band (core.Index.Census, sherman.Index.Census).
type censusTaker interface {
	Census() (nodes []int, leafKeys []int, err error)
}

// TreeShape takes the census of sys's tree: no verbs, no virtual time, on
// a tree nobody is writing. A system that is not a B-tree has the zero
// shape.
func TreeShape(sys System) (Shape, error) {
	s, _, err := census(sys)
	return s, err
}

// census is TreeShape with what the shape sums up: the keys each leaf
// holds, in chain order.
func census(sys System) (Shape, []int, error) {
	ct, ok := sys.(censusTaker)
	if !ok {
		return Shape{}, nil, nil
	}
	nodes, leafKeys, err := ct.Census()
	if err != nil {
		return Shape{}, nil, fmt.Errorf("bench: %s census: %w", sys.Name(), err)
	}
	if len(nodes) > shapeLevels {
		return Shape{}, nil, fmt.Errorf("bench: %s census: %d levels", sys.Name(), len(nodes))
	}
	s := Shape{Levels: len(nodes)}
	copy(s.Nodes[:], nodes)
	for _, k := range leafKeys {
		s.Keys += k
	}
	return s, leafKeys, nil
}
