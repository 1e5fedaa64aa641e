package main

import (
	"testing"

	"routerless/internal/topo"
)

// checkFlags runs before anything is built: each rejected case used to
// panic, exhaust memory, or print a meaningless sweep row.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                               string
		mesh, delay, warmup, measure, jobs int
		rates                              string
		ok                                 bool
	}{
		{"defaults", 0, 2, 2000, 10000, 1, "0.005,0.02,0.05,0.1", true},
		{"mesh at bounds", topo.MaxJSONSide, 0, 0, 1, 1, "0.3", true},
		{"smallest mesh", 2, 2, 200, 500, 1, " 0.01 , 0.02 ", true},
		{"negative delay", 4, -1, 200, 500, 1, "0.01", false},
		{"mesh of one", 1, 2, 200, 500, 1, "0.01", false},
		{"negative mesh", -3, 2, 200, 500, 1, "0.01", false},
		{"mesh above max", topo.MaxJSONSide + 1, 2, 200, 500, 1, "0.01", false},
		{"huge mesh", 100000, 2, 200, 500, 1, "0.01", false},
		{"NaN rate", 4, 2, 200, 500, 1, "NaN", false},
		{"infinite rate", 4, 2, 200, 500, 1, "0.01,+Inf", false},
		{"negative rate", 4, 2, 200, 500, 1, "-0.5", false},
		{"zero rate", 4, 2, 200, 500, 1, "0", false},
		{"unparsable rate", 4, 2, 200, 500, 1, "0.01,x", false},
		{"empty rate", 4, 2, 200, 500, 1, "0.01,", false},
		{"negative warmup", 4, 2, -1, 500, 1, "0.01", false},
		{"negative measure", 4, 2, 200, -20, 1, "0.01", false},
		{"zero measure", 4, 2, 200, 0, 1, "0.01", false},
		{"delay at bound", 4, 2, 200, 500, 1, "0.01", true},
		{"delay above 2", 4, 3, 200, 500, 1, "0.01", false},
		{"rate of one", 4, 2, 200, 500, 1, "0.5,1", true},
		{"rate above one", 4, 2, 200, 500, 1, "0.5,1.5", false},
		{"many jobs", 4, 2, 200, 500, 64, "0.01", true},
		{"zero jobs", 4, 2, 200, 500, 0, "0.01", false},
		{"negative jobs", 4, 2, 200, 500, -2, "0.01", false},
	} {
		rates, err := checkFlags(tc.mesh, tc.delay, tc.warmup, tc.measure, tc.jobs, tc.rates)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && len(rates) == 0 {
			t.Errorf("%s: no rates parsed", tc.name)
		}
	}
}
