package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the structured tracing half of the observability layer: a
// span recorder that attributes wall time to logical phases of the stack
// (episode, MCTS select/expand/backup, broker queue-wait/batch, sim
// warmup/measure/drain, experiment points) instead of functions, the way a
// CPU profile cannot.
//
// Design rules (see DESIGN.md):
//
//   - One TraceShard per goroutine. A shard's ring buffer and span stack
//     are written without locks by exactly one owning goroutine; shards
//     are handed out by Tracer.Shard (cold path, mutex-protected). In the
//     exported Chrome trace each shard becomes one track.
//   - Disabled tracing is free. A nil *Tracer hands out nil shards, and
//     Start/End/Record on a nil shard are a single pointer check with zero
//     allocation, so instrumented hot paths keep their AllocsPerRun == 0
//     pins without branching on "is tracing on".
//   - Aggregates are always readable. Per-kind count/total/self tallies
//     are atomic, so /debug/spans and progress lines can be served while
//     learner goroutines are mid-span. The raw ring buffers are exported
//     only after the run quiesces (WriteTrace documents this).

// SpanKind identifies a logical phase of the stack. Kinds are a closed
// enum (not free strings) so recording a span writes plain-old-data: no
// interning, no map lookups, no allocation.
type SpanKind uint8

const (
	SpanNone SpanKind = iota

	// DRL search phases.
	SpanSearchRun // one drl.Searcher.Run, all episodes and workers
	SpanEpisode   // one exploration cycle incl. backup and training
	SpanMCTSSelect
	SpanMCTSExpand
	SpanMCTSBackup
	SpanTrain  // A2C accumulate + parameter-server apply + resync
	SpanGreedy // Algorithm 1: one greedy pick or a greedy completion

	// Inference phases.
	SpanNNForward          // per-worker one-sample Forward
	SpanInferSubmit        // worker-side Submit (blocks for the Eval)
	SpanInferQueueWait     // request enqueue -> batch pickup (broker side)
	SpanInferBatchAssemble // first request -> batch complete
	SpanInferForward       // one batched inference nn.Forward

	// Simulator phases.
	SpanSimRun
	SpanSimWarmup
	SpanSimMeasure
	SpanSimDrain

	// Experiment harness.
	SpanExpPoint // one experiment point on a RunParallel worker

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanNone:               "none",
	SpanSearchRun:          "drl.run",
	SpanEpisode:            "drl.episode",
	SpanMCTSSelect:         "mcts.select",
	SpanMCTSExpand:         "mcts.expand",
	SpanMCTSBackup:         "mcts.backup",
	SpanTrain:              "drl.train",
	SpanGreedy:             "rl.greedy",
	SpanNNForward:          "nn.forward",
	SpanInferSubmit:        "infer.submit",
	SpanInferQueueWait:     "infer.queue_wait",
	SpanInferBatchAssemble: "infer.batch_assemble",
	SpanInferForward:       "infer.forward_batch",
	SpanSimRun:             "sim.run",
	SpanSimWarmup:          "sim.warmup",
	SpanSimMeasure:         "sim.measure",
	SpanSimDrain:           "sim.drain",
	SpanExpPoint:           "exp.point",
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// spanCat maps a kind to its Chrome trace category (the dotted prefix).
func spanCat(k SpanKind) string {
	name := k.String()
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// spanRec is one closed span: plain old data, 24 bytes, no pointers.
type spanRec struct {
	Kind       SpanKind
	Depth      uint8
	Start, End int64 // ns since the tracer's base time
}

// openSpan is one in-progress span on a shard's stack.
type openSpan struct {
	kind    SpanKind
	start   int64
	childNS int64 // accumulated duration of closed children
}

// kindAgg is one kind's running tally, atomically readable mid-run.
type kindAgg struct {
	count atomic.Int64
	total atomic.Int64 // wall ns, including children
	self  atomic.Int64 // wall ns minus closed children
}

// Tracer owns the trace: a base timestamp, the shard list, and the ring
// capacity new shards get. A nil *Tracer is the disabled tracer — Shard
// returns nil and every derived operation is a no-op.
type Tracer struct {
	base  time.Time
	nowNS func() int64 // overridable for deterministic tests

	mu     sync.Mutex
	shards []*TraceShard
	cap    int
}

// NewTracer builds a tracer whose shards each keep the most recent
// spansPerShard spans (older records are overwritten ring-style; the
// per-kind aggregates keep counting). Capacities below 256 are raised.
func NewTracer(spansPerShard int) *Tracer {
	if spansPerShard < 256 {
		spansPerShard = 256
	}
	t := &Tracer{base: time.Now(), cap: spansPerShard}
	t.nowNS = func() int64 { return int64(time.Since(t.base)) }
	return t
}

// Now returns nanoseconds since the tracer's base time (0 on nil); pair it
// with TraceShard.Record for retroactive spans.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.nowNS()
}

// Shard hands out a new single-goroutine span recorder, shown as one track
// named name in the exported trace. The caller goroutine owns it
// exclusively: Start/End/Record must never be called from two goroutines.
// A nil tracer returns a nil (no-op) shard.
func (t *Tracer) Shard(name string) *TraceShard {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sh := &TraceShard{
		t:     t,
		name:  name,
		id:    len(t.shards) + 1,
		recs:  make([]spanRec, t.cap),
		stack: make([]openSpan, 0, 64),
	}
	t.shards = append(t.shards, sh)
	return sh
}

// TraceShard is one goroutine's span recorder: a fixed-capacity ring of
// POD span records plus per-kind atomic aggregates. All record operations
// are lock-free and allocation-free; only the owning goroutine may call
// them.
type TraceShard struct {
	t    *Tracer
	name string
	id   int

	recs  []spanRec
	n     int // total records ever written; next slot is n % len(recs)
	stack []openSpan

	agg [numSpanKinds]kindAgg
}

// Span is an open span handle. It is a two-word value, so Start/End pairs
// never allocate; the zero Span (from a nil shard) is a no-op.
type Span struct {
	sh *TraceShard
}

// Start opens a span of the given kind on the shard's stack. Spans must be
// closed in LIFO order (strict nesting); crossing goroutines is not
// allowed — record cross-goroutine intervals with Record instead.
func (sh *TraceShard) Start(kind SpanKind) Span {
	if sh == nil {
		return Span{}
	}
	sh.stack = append(sh.stack, openSpan{kind: kind, start: sh.t.nowNS()})
	return Span{sh: sh}
}

// End closes the most recently started span: writes its record, updates
// the kind's aggregate, and charges its duration to the parent's
// child-time so the parent's self time stays accurate.
func (sp Span) End() {
	sh := sp.sh
	if sh == nil {
		return
	}
	top := len(sh.stack) - 1
	o := sh.stack[top]
	sh.stack = sh.stack[:top]
	end := sh.t.nowNS()
	dur := end - o.start
	sh.push(spanRec{Kind: o.kind, Depth: uint8(top), Start: o.start, End: end})
	a := &sh.agg[o.kind]
	a.count.Add(1)
	a.total.Add(dur)
	a.self.Add(dur - o.childNS)
	if top > 0 {
		sh.stack[top-1].childNS += dur
	}
}

// Record writes a retroactive flat span from startNS to endNS (tracer
// nanoseconds, see Tracer.Now). It does not participate in the nesting
// accounting — no parent is charged and the span's self time equals its
// total — which makes it safe for intervals that began on another
// goroutine, like a broker request's queue wait.
func (sh *TraceShard) Record(kind SpanKind, startNS, endNS int64) {
	if sh == nil {
		return
	}
	if endNS < startNS {
		startNS, endNS = endNS, startNS
	}
	sh.push(spanRec{Kind: kind, Depth: uint8(len(sh.stack)), Start: startNS, End: endNS})
	a := &sh.agg[kind]
	a.count.Add(1)
	a.total.Add(endNS - startNS)
	a.self.Add(endNS - startNS)
}

func (sh *TraceShard) push(r spanRec) {
	sh.recs[sh.n%len(sh.recs)] = r
	sh.n++
}

// SpanStat is one row of the aggregated self/total-time table.
type SpanStat struct {
	Kind    string `json:"kind"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// Aggregate sums the per-kind tallies across all shards, sorted by self
// time descending. Safe to call while spans are being recorded (the
// tallies are atomic); a nil tracer returns nil.
func (t *Tracer) Aggregate() []SpanStat {
	if t == nil {
		return nil
	}
	var count, total, self [numSpanKinds]int64
	t.mu.Lock()
	shards := append([]*TraceShard(nil), t.shards...)
	t.mu.Unlock()
	for _, sh := range shards {
		for k := range sh.agg {
			count[k] += sh.agg[k].count.Load()
			total[k] += sh.agg[k].total.Load()
			self[k] += sh.agg[k].self.Load()
		}
	}
	var out []SpanStat
	for k := 1; k < int(numSpanKinds); k++ {
		if count[k] == 0 {
			continue
		}
		out = append(out, SpanStat{
			Kind:    SpanKind(k).String(),
			Count:   count[k],
			TotalNS: total[k],
			SelfNS:  self[k],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNS != out[j].SelfNS {
			return out[i].SelfNS > out[j].SelfNS
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// AggregateTable renders the span table as aligned text (the /debug/spans
// and end-of-run format). Empty string when no spans were recorded.
func (t *Tracer) AggregateTable() string {
	stats := t.Aggregate()
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %14s %14s %6s\n", "span", "count", "total", "self", "self%")
	var selfSum int64
	for _, s := range stats {
		selfSum += s.SelfNS
	}
	for _, s := range stats {
		pct := 0.0
		if selfSum > 0 {
			pct = 100 * float64(s.SelfNS) / float64(selfSum)
		}
		fmt.Fprintf(&b, "%-22s %10d %14s %14s %5.1f%%\n",
			s.Kind, s.Count,
			time.Duration(s.TotalNS).Round(time.Microsecond),
			time.Duration(s.SelfNS).Round(time.Microsecond), pct)
	}
	return b.String()
}

// SummaryLine compresses the aggregate into one progress-line suffix: the
// top k kinds by self time. Empty string when nothing was recorded.
func (t *Tracer) SummaryLine(k int) string {
	stats := t.Aggregate()
	if len(stats) == 0 {
		return ""
	}
	if k > len(stats) {
		k = len(stats)
	}
	parts := make([]string, 0, k)
	for _, s := range stats[:k] {
		parts = append(parts, fmt.Sprintf("%s %s", s.Kind, time.Duration(s.SelfNS).Round(time.Millisecond)))
	}
	return "spans(self): " + strings.Join(parts, ", ")
}

// traceEvent is one Chrome trace-event JSON record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace exports every shard's ring contents as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing: one track (tid) per
// shard, complete ("X") events with microsecond timestamps, and a
// thread_name metadata record per track. Ring overwrites drop the oldest
// spans of a shard, never the newest.
//
// The ring buffers are written without synchronization by their owning
// goroutines, so WriteTrace must only run after those goroutines have
// quiesced (e.g. after Searcher.Run returns). The atomic aggregate table
// has no such restriction.
func (t *Tracer) WriteTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	shards := append([]*TraceShard(nil), t.shards...)
	t.mu.Unlock()

	if _, err := io.WriteString(w, `{"traceEvents":[`+"\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	for _, sh := range shards {
		if err := emit(traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: sh.id,
			Args: map[string]any{"name": sh.name},
		}); err != nil {
			return err
		}
		n := sh.n
		start := 0
		if n > len(sh.recs) {
			start = n - len(sh.recs)
		}
		for i := start; i < n; i++ {
			r := sh.recs[i%len(sh.recs)]
			if err := emit(traceEvent{
				Name: r.Kind.String(), Cat: spanCat(r.Kind), Ph: "X",
				Ts:  float64(r.Start) / 1e3,
				Dur: float64(r.End-r.Start) / 1e3,
				Pid: 1, Tid: sh.id,
			}); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}
