// Package infer is the shared batched-inference service for the DRL
// learners (§4.5–4.6). Worker goroutines submit evaluation requests to a
// Broker; its evaluation goroutine blocks for one request, drains whatever
// else is already queued up to the batch cap, runs one inference
// nn.Forward over the batch on a dedicated evaluator network, and copies
// each sample's result into the Eval its submitter passed in.
//
// A parameter-server weight sync (Sync) is staged under a mutex and
// applied by the evaluation goroutine before its next forward, so every
// batch is evaluated under one consistent set of weights.
package infer

import (
	"slices"
	"sync"
	"time"

	"routerless/internal/nn"
	"routerless/internal/obs"
)

// Eval is one delivered evaluation: CoordProbs are the four coordinate
// softmax groups, Dir is tanh(DirPre), Value the predicted return. A
// submitter owns its Eval and reuses it across Submit calls, so a warmed
// Submit allocates nothing.
type Eval struct {
	CoordProbs  [4][]float64
	DirPre, Dir float64
	Value       float64

	done chan struct{} // signalled once the broker has filled the Eval
}

// Config parameterizes a Broker.
type Config struct {
	// Net is the dedicated evaluator network. The broker owns it (and its
	// scratch arena) exclusively after New; nobody else may call into it.
	Net *nn.PolicyValueNet
	// Batch caps how many requests one forward evaluates (clamped to ≥ 1).
	// The evaluator's arena is pre-sized for it.
	Batch int
	// Metrics, when non-nil, receives the infer.requests and infer.batches
	// counters and the batch-occupancy and queue-wait histograms.
	Metrics *obs.Registry
	// Trace, when non-nil, records broker spans: infer.batch_assemble and
	// infer.forward_batch on the evaluation-goroutine track, plus
	// retroactive infer.queue_wait spans (one per request, measured from
	// enqueue to batch pickup) on a dedicated "infer.queue" track.
	Trace *obs.Tracer
}

type request struct {
	state []float64
	ev    *Eval
	enq   time.Time
}

// Broker is the shared inference service. All methods are safe for
// concurrent use, except that Close must not race with Submit.
type Broker struct {
	net   *nn.PolicyValueNet
	bmax  int
	reqCh chan request
	wg    sync.WaitGroup

	mu       sync.Mutex
	pendingW []float64 // staged weight snapshot (valid when haveSync)
	pendingS []float64 // staged BatchNorm running stats
	haveSync bool

	requests, batches    *obs.Counter
	occupancy, queueWait *obs.Histogram

	// tracer is kept for Now(); the two shards are owned by the evaluation
	// goroutine exclusively once run starts (per-goroutine ownership rule).
	tracer     *obs.Tracer
	trace      *obs.TraceShard // "infer.broker": batch assemble + forward spans
	queueTr    *obs.TraceShard // "infer.queue": retroactive queue-wait spans
	lastPickup int64           // tracer time the previous batch was picked up
}

// New starts a broker and its evaluation goroutine.
func New(cfg Config) *Broker {
	if cfg.Net == nil {
		panic("infer: Config.Net is required")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	reg := cfg.Metrics
	b := &Broker{
		net:  cfg.Net,
		bmax: cfg.Batch,
		// One slot per request a batch can hold: up to a full batch of
		// submitters enqueue without waiting for the evaluation goroutine.
		reqCh: make(chan request, cfg.Batch),

		requests:  reg.Counter("infer.requests"),
		batches:   reg.Counter("infer.batches"),
		occupancy: reg.Histogram("infer.batch_occupancy"),
		queueWait: reg.Histogram("infer.queue_wait_us"),

		tracer:  cfg.Trace,
		trace:   cfg.Trace.Shard("infer.broker"),
		queueTr: cfg.Trace.Shard("infer.queue"),
	}
	b.net.WarmBatch(b.bmax)
	b.wg.Add(1)
	go b.run()
	return b
}

// Submit evaluates state and blocks until the result has been copied into
// ev. state must stay valid and unmutated until Submit returns, and ev must
// not be passed to a concurrent Submit.
func (b *Broker) Submit(state []float64, ev *Eval) {
	if ev.done == nil {
		ev.done = make(chan struct{}, 1)
	}
	b.requests.Inc()
	b.reqCh <- request{state: state, ev: ev, enq: time.Now()}
	<-ev.done
}

// Sync stages a new weight snapshot (and optionally the BatchNorm running
// statistics that eval-mode inference reads). The evaluation goroutine
// applies them before its next forward. params/stats are copied; callers
// may reuse their buffers immediately.
func (b *Broker) Sync(params, stats []float64) {
	b.mu.Lock()
	b.pendingW = append(b.pendingW[:0], params...)
	b.pendingS = append(b.pendingS[:0], stats...)
	b.haveSync = true
	b.mu.Unlock()
}

// Close drains the request queue and stops the evaluation goroutine. No
// Submit may be started after (or concurrently with) Close.
func (b *Broker) Close() {
	close(b.reqCh)
	b.wg.Wait()
}

// run is the evaluation loop: block for one request, drain whatever else
// is already queued up to the batch cap, evaluate, and deliver. A lone
// worker therefore never waits for company, and batches form exactly when
// several workers are waiting at once.
func (b *Broker) run() {
	defer b.wg.Done()
	batch := make([]request, 0, b.bmax)
	states := make([][]float64, b.bmax)
	outs := make([]nn.Output, b.bmax)
	for r := range b.reqCh {
		asm := b.trace.Start(obs.SpanInferBatchAssemble)
		batch = append(batch[:0], r)
	drain:
		for len(batch) < b.bmax {
			select {
			case r2, ok := <-b.reqCh:
				if !ok {
					break drain
				}
				batch = append(batch, r2)
			default:
				break drain
			}
		}
		asm.End()
		b.evaluate(batch, states, outs)
	}
}

// evaluate applies any staged sync, runs one batch forward, and copies
// each result into its submitter's Eval.
func (b *Broker) evaluate(batch []request, states [][]float64, outs []nn.Output) {
	b.mu.Lock()
	if b.haveSync {
		b.net.SetWeights(b.pendingW)
		if len(b.pendingS) > 0 {
			b.net.SetStats(b.pendingS)
		}
		b.haveSync = false
	}
	b.mu.Unlock()

	n := len(batch)
	now := time.Now()
	if b.queueTr != nil {
		// Reorders batch, so it runs before states and outs are indexed.
		b.recordWaits(batch, now)
	}
	for i, r := range batch {
		states[i] = r.state
		b.queueWait.Observe(float64(now.Sub(r.enq).Microseconds()))
	}
	fw := b.trace.Start(obs.SpanInferForward)
	b.net.Forward(states[:n], outs[:n], false)
	fw.End()
	b.batches.Inc()
	b.occupancy.Observe(float64(n))

	for i, r := range batch {
		ev, out := r.ev, &outs[i]
		for g := range ev.CoordProbs {
			ev.CoordProbs[g] = append(ev.CoordProbs[g][:0], out.CoordProbs[g]...)
		}
		ev.DirPre, ev.Dir, ev.Value = out.DirPre, out.Dir, out.Value
		ev.done <- struct{}{}
	}
}

// recordWaits sorts batch by enqueue time and records each request's queue
// wait as a span on the queue track. The waits began on the submitting
// goroutines, so they are written retroactively (see waitSpan).
func (b *Broker) recordWaits(batch []request, now time.Time) {
	slices.SortFunc(batch, func(x, y request) int { return x.enq.Compare(y.enq) })
	pickup := b.tracer.Now()
	for j, r := range batch {
		start, end := waitSpan(pickup, b.lastPickup, now.Sub(r.enq).Nanoseconds(), j)
		b.queueTr.Record(obs.SpanInferQueueWait, start, end)
	}
	b.lastPickup = pickup
}

// waitSpan places the queue wait of the j-th earliest-enqueued request of a
// batch picked up at tracer time pickup. The track must stay strictly
// nested even after the exporter rounds nanoseconds to float microseconds,
// so a batch's spans lie within (lastPickup, pickup] and end 1 ns apart,
// the earliest-enqueued outermost. A request enqueued just after the
// previous drain thus shows only the wait since that drain; the queue-wait
// histogram keeps every exact wait.
func waitSpan(pickup, lastPickup, wait int64, j int) (start, end int64) {
	end = pickup - int64(j)
	start = max(pickup-wait, lastPickup+1)
	return min(start, end), end
}
