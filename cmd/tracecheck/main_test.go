package main

import (
	"strings"
	"testing"
)

// traceCases are trace files check must accept (err == "") or reject with
// an error containing err.
var traceCases = []struct {
	name    string
	in      string
	require []string
	err     string
}{
	{name: "nested", in: `{"traceEvents":[
		{"name":"thread_name","ph":"M","tid":1,"args":{"name":"worker"}},
		{"name":"drl.episode","ph":"X","ts":0,"dur":10,"tid":1},
		{"name":"mcts.select","ph":"X","ts":2,"dur":3,"tid":1},
		{"name":"mcts.select","ph":"X","ts":5,"dur":5,"tid":1},
		{"name":"drl.episode","ph":"X","ts":4,"dur":10,"tid":2}]}`,
		require: []string{"drl.episode", " mcts.select", ""}},
	{name: "extra top-level keys", in: `{"displayTimeUnit":"ns","traceEvents":[{"name":"a","ph":"X","dur":1}]}`},
	{name: "not JSON", in: `{"traceEvents":[`, err: "not valid trace JSON"},
	{name: "wrong shape", in: `{"traceEvents":{}}`, err: "not valid trace JSON"},
	{name: "negative dur", in: `{"traceEvents":[{"name":"a","ph":"X","dur":-1}]}`, err: "negative dur"},
	{name: "empty name", in: `{"traceEvents":[{"ph":"X","dur":1}]}`, err: "empty name"},
	{name: "unknown phase", in: `{"traceEvents":[{"name":"a","ph":"B"}]}`, err: "unexpected phase"},
	{name: "partial overlap", in: `{"traceEvents":[
		{"name":"a","ph":"X","ts":0,"dur":10,"tid":3},
		{"name":"b","ph":"X","ts":5,"dur":10,"tid":3}]}`, err: "partially overlaps"},
	{name: "no spans", in: `{"traceEvents":[]}`, err: "only 0 complete events"},
	{name: "missing required", in: `{"traceEvents":[{"name":"a","ph":"X","dur":1}]}`,
		require: []string{"a", "b", "c"}, err: "missing: b, c"},
}

func TestCheck(t *testing.T) {
	for _, tc := range traceCases {
		sum, err := check([]byte(tc.in), tc.require, 1)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.err)
		}
		if tc.name == "nested" && sum != (summary{spans: 4, tracks: 2, names: 2}) {
			t.Errorf("nested: summary = %+v, want 4 spans on 2 tracks, 2 names", sum)
		}
	}
}

// FuzzTraceCheck feeds arbitrary bytes to the trace decoder. It must never
// panic, and a trace it accepts must hold at least the requested spans.
func FuzzTraceCheck(f *testing.F) {
	for _, tc := range traceCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := check(data, nil, 1)
		if err != nil {
			return
		}
		if sum.spans < 1 || sum.tracks < 1 || sum.tracks > sum.spans || sum.names > sum.spans {
			t.Fatalf("accepted trace with summary %+v", sum)
		}
	})
}
