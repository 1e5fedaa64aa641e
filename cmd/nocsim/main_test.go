package main

import (
	"testing"

	"routerless/internal/topo"
)

// checkFlags runs before anything is built: each rejected case used to
// panic, exhaust memory, or print a meaningless sweep row.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		mesh, delay, warmup, measure int
		rates                        string
		ok                           bool
	}{
		{"defaults", 0, 2, 2000, 10000, "0.005,0.02,0.05,0.1", true},
		{"mesh at bounds", topo.MaxJSONSide, 0, 0, 1, "0.3", true},
		{"smallest mesh", 2, 2, 200, 500, " 0.01 , 0.02 ", true},
		{"negative delay", 4, -1, 200, 500, "0.01", false},
		{"mesh of one", 1, 2, 200, 500, "0.01", false},
		{"negative mesh", -3, 2, 200, 500, "0.01", false},
		{"mesh above max", topo.MaxJSONSide + 1, 2, 200, 500, "0.01", false},
		{"huge mesh", 100000, 2, 200, 500, "0.01", false},
		{"NaN rate", 4, 2, 200, 500, "NaN", false},
		{"infinite rate", 4, 2, 200, 500, "0.01,+Inf", false},
		{"negative rate", 4, 2, 200, 500, "-0.5", false},
		{"zero rate", 4, 2, 200, 500, "0", false},
		{"unparsable rate", 4, 2, 200, 500, "0.01,x", false},
		{"empty rate", 4, 2, 200, 500, "0.01,", false},
		{"negative warmup", 4, 2, -1, 500, "0.01", false},
		{"negative measure", 4, 2, 200, -20, "0.01", false},
		{"zero measure", 4, 2, 200, 0, "0.01", false},
	} {
		rates, err := checkFlags(tc.mesh, tc.delay, tc.warmup, tc.measure, tc.rates)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && len(rates) == 0 {
			t.Errorf("%s: no rates parsed", tc.name)
		}
	}
}
