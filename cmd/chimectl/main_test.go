package main

import "testing"

// TestCheckSizes: a run needs positive -load, -ops and -clients;
// `chimectl -clients 0` used to divide by zero.
func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		load, ops, clients int
		ok                 bool
	}{
		{100000, 40000, 32, true},
		{1, 1, 1, true},
		{1000, 10, 64, true}, // fewer ops than clients is one op each
		{1000, 800, 0, false},
		{1000, 800, -4, false},
		{1000, 0, 4, false},
		{1000, -1, 4, false},
		{0, 800, 4, false},
		{-5, 800, 4, false},
	} {
		if err := checkSizes(tc.load, tc.ops, tc.clients); (err == nil) != tc.ok {
			t.Errorf("checkSizes(load=%d, ops=%d, clients=%d) = %v, want ok=%t", tc.load, tc.ops, tc.clients, err, tc.ok)
		}
	}
}
