package main

import "testing"

// checkFlags runs before any experiment: an unknown -exp used to fail only
// after the profiles and trace had started, and -j below 1 reached the
// experiment worker pool.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   string
		jobs int
		ok   bool
	}{
		{"all", "all", 1, true},
		{"table", "T3", 4, true},
		{"section", "S6.7", 1, true},
		{"ablations", "A", 1, true},
		{"unknown id", "T9", 1, false},
		{"empty id", "", 1, false},
		{"lower-case id", "t3", 1, false},
		{"zero jobs", "T3", 0, false},
		{"negative jobs", "all", -1, false},
	} {
		if err := checkFlags(tc.id, tc.jobs); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
