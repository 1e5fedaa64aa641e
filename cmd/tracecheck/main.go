// Command tracecheck validates a Chrome trace-event JSON file produced by
// the -trace flag of nocexplore/nocsim/benchtab (internal/obs.WriteTrace).
// It checks the file is well-formed, that complete ("X") events nest
// strictly within each track (tid), and — optionally — that a set of
// required span names is present. `make trace-smoke` uses it to gate the
// tracing pipeline end to end.
//
// Usage:
//
//	tracecheck trace.json
//	tracecheck -require drl.episode,mcts.select,infer.forward_batch trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// traceEvent mirrors the subset of the Chrome trace-event format that
// obs.WriteTrace emits: "X" complete events and "M" thread_name metadata.
type traceEvent struct {
	Name  string          `json:"name"`
	Cat   string          `json:"cat"`
	Phase string          `json:"ph"`
	TS    float64         `json:"ts"`
	Dur   float64         `json:"dur"`
	PID   int             `json:"pid"`
	TID   int             `json:"tid"`
	Args  json.RawMessage `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	// Extra top-level keys (displayTimeUnit, ...) are part of the format
	// and ignored.
}

func main() {
	require := flag.String("require", "", "comma-separated span names that must appear at least once")
	minSpans := flag.Int("min-spans", 1, "minimum number of complete (X) events")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require a,b,c] [-min-spans n] trace.json")
		os.Exit(2)
	}
	path := flag.Arg(0)

	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var names []string
	if *require != "" {
		names = strings.Split(*require, ",")
	}
	sum, err := check(data, names, *minSpans)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Printf("tracecheck: %s ok — %d spans on %d tracks, %d distinct names\n",
		path, sum.spans, sum.tracks, sum.names)
}

// summary counts what a trace that passed check holds.
type summary struct {
	spans, tracks, names int
}

// check decodes trace JSON and validates it: every event is a complete
// ("X") or metadata ("M") event, complete events are named, have a
// non-negative duration and nest strictly within their track, there are at
// least minSpans of them, and every non-blank name in require appears.
func check(data []byte, require []string, minSpans int) (summary, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return summary{}, fmt.Errorf("not valid trace JSON: %w", err)
	}

	tracks := map[int][]traceEvent{} // X events per tid
	names := map[string]int{}        // span name -> count
	trackNames := map[int]string{}   // tid -> thread_name metadata
	for i, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "X":
			if ev.Dur < 0 {
				return summary{}, fmt.Errorf("event %d (%q) has negative dur %.3f", i, ev.Name, ev.Dur)
			}
			if ev.Name == "" {
				return summary{}, fmt.Errorf("event %d has empty name", i)
			}
			tracks[ev.TID] = append(tracks[ev.TID], ev)
			names[ev.Name]++
		case "M":
			var args struct {
				Name string `json:"name"`
			}
			_ = json.Unmarshal(ev.Args, &args)
			trackNames[ev.TID] = args.Name
		default:
			return summary{}, fmt.Errorf("event %d has unexpected phase %q", i, ev.Phase)
		}
	}

	total := 0
	for tid, evs := range tracks {
		total += len(evs)
		if err := checkNesting(evs); err != nil {
			return summary{}, fmt.Errorf("track %d (%s): %w", tid, trackNames[tid], err)
		}
	}
	if total < minSpans {
		return summary{}, fmt.Errorf("only %d complete events, want at least %d", total, minSpans)
	}
	var missing []string
	for _, want := range require {
		want = strings.TrimSpace(want)
		if want != "" && names[want] == 0 {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		return summary{}, fmt.Errorf("required span names missing: %s", strings.Join(missing, ", "))
	}
	return summary{spans: total, tracks: len(tracks), names: len(names)}, nil
}

// checkNesting verifies that within one track, event intervals form a
// strict hierarchy: any two either do not overlap or one contains the
// other. Spans are recorded per goroutine from a LIFO stack, so a partial
// overlap can only come from a corrupted export.
func checkNesting(evs []traceEvent) error {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Dur > evs[j].Dur // parent before child at equal start
	})
	type open struct {
		name string
		end  float64
	}
	var stack []open
	for _, ev := range evs {
		start, end := ev.TS, ev.TS+ev.Dur
		for len(stack) > 0 && stack[len(stack)-1].end <= start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && end > stack[len(stack)-1].end {
			return fmt.Errorf("span %q [%.3f, %.3f] partially overlaps enclosing %q (ends %.3f)",
				ev.Name, start, end, stack[len(stack)-1].name, stack[len(stack)-1].end)
		}
		stack = append(stack, open{ev.Name, end})
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
