// Package infer is the shared batched-inference service for the DRL
// learners (§4.5–4.6). Worker goroutines submit (fingerprint, state)
// evaluation requests to a Broker; the broker coalesces duplicate in-flight
// fingerprints, gathers concurrent requests into batches of up to B, runs
// one batch-N inference nn.Forward on a dedicated evaluator network, and
// scatters per-sample results back to the waiting workers. A sharded
// fingerprint-keyed LRU cache fronts the evaluator — the canonical topology
// fingerprint is an O(1) cached read, so it doubles as a transposition-
// style cache key (the AlphaGo Zero lineage's second throughput lever next
// to batching).
//
// Correctness protocol: every parameter-server weight sync (Sync) stages
// the new weights, bumps the broker's generation, and invalidates the
// cache in one critical section; the evaluation loop applies staged
// weights and reads the generation under the same mutex, and cache inserts
// re-check the generation under the shard lock. A policy/value evaluation
// therefore never outlives the weights that produced it, and in-flight
// requests created before a sync are never joined by post-sync submitters.
package infer

import (
	"sync"
	"sync/atomic"
	"time"

	"routerless/internal/nn"
	"routerless/internal/obs"
)

// Eval is one cached/delivered evaluation. It is immutable after creation
// and may be shared by many readers; CoordProbs are the four coordinate
// softmax groups, Dir is tanh(DirPre), Value the predicted return.
type Eval struct {
	CoordProbs  [4][]float64
	DirPre, Dir float64
	Value       float64
}

// Config parameterizes a Broker.
type Config struct {
	// Net is the dedicated evaluator network. The broker owns it (and its
	// scratch arena) exclusively after New; nobody else may call into it.
	Net *nn.PolicyValueNet
	// Batch caps how many requests one forward evaluates (clamped to ≥ 1).
	Batch int
	// FlushWait, when > 0, tops up partial batches: after the first request
	// is picked up the collector waits up to this long for more before
	// flushing. Zero (the default) flushes on quiescence — the collector
	// drains whatever is already queued and evaluates immediately, so a
	// lone worker never stalls and batching emerges exactly when several
	// workers are simultaneously waiting.
	FlushWait time.Duration
	// CacheSize is the LRU capacity in evaluations across all shards
	// (0 = default 4096, negative = caching disabled).
	CacheSize int
	// Metrics receives broker telemetry (batch-occupancy and queue-wait
	// histograms, cache hit/miss/evict/invalidation counters). When nil the
	// broker keeps a private registry so Stats() still works.
	Metrics *obs.Registry
	// Trace, when non-nil, records broker spans: infer.batch_assemble and
	// infer.forward_batch on the evaluation-goroutine track, plus
	// retroactive infer.queue_wait spans (one per request, measured from
	// enqueue to batch pickup) on a dedicated "infer.queue" track.
	Trace *obs.Tracer
}

// defaultCacheSize bounds the default cache at a few hundred KiB of Evals.
const defaultCacheSize = 4096

type request struct {
	fl    *flight
	state []float64
	enq   time.Time
}

// flight is one in-progress evaluation of a fingerprint. Duplicate submits
// of the same fingerprint within the same generation join the existing
// flight instead of enqueueing a second request.
type flight struct {
	fp   string
	gen  uint64
	done chan struct{}
	ev   *Eval // written before done is closed
}

// Broker is the shared inference service. All methods are safe for
// concurrent use, except that Close must not race with Submit.
type Broker struct {
	net       *nn.PolicyValueNet
	bmax      int
	flushWait time.Duration
	reqCh     chan *request
	cache     *evalCache
	wg        sync.WaitGroup

	mu       sync.Mutex
	pending  map[string]*flight
	pendingW []float64 // staged weight snapshot (valid when haveSync)
	pendingS []float64 // staged BatchNorm running stats
	haveSync bool
	gen      atomic.Uint64

	requests, hits, misses, coalesced *obs.Counter
	evaluated, batches                *obs.Counter
	evictions, invalidations          *obs.Counter
	occupancy, queueWait              *obs.Histogram

	// tracer is kept for Now(); the two shards are owned by the evaluation
	// goroutine exclusively once run starts (per-goroutine ownership rule).
	tracer  *obs.Tracer
	trace   *obs.TraceShard // "infer.broker": batch assemble + forward spans
	queueTr *obs.TraceShard // "infer.queue": retroactive queue-wait spans
}

// New starts a broker and its evaluation goroutine. The evaluator's arena
// is pre-sized for full batches, so steady-state evaluation allocates only
// the delivered Eval values.
func New(cfg Config) *Broker {
	if cfg.Net == nil {
		panic("infer: Config.Net is required")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var cache *evalCache
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = defaultCacheSize
		}
		cache = newEvalCache(size)
	}
	b := &Broker{
		net:       cfg.Net,
		bmax:      cfg.Batch,
		flushWait: cfg.FlushWait,
		reqCh:     make(chan *request, max(64, 4*cfg.Batch)),
		cache:     cache,
		pending:   make(map[string]*flight),

		requests:      reg.Counter("infer.requests"),
		hits:          reg.Counter("infer.cache_hits"),
		misses:        reg.Counter("infer.cache_misses"),
		coalesced:     reg.Counter("infer.coalesced"),
		evaluated:     reg.Counter("infer.evaluated"),
		batches:       reg.Counter("infer.batches"),
		evictions:     reg.Counter("infer.cache_evictions"),
		invalidations: reg.Counter("infer.cache_invalidations"),
		occupancy:     reg.Histogram("infer.batch_occupancy"),
		queueWait:     reg.Histogram("infer.queue_wait_us"),

		tracer:  cfg.Trace,
		trace:   cfg.Trace.Shard("infer.broker"),
		queueTr: cfg.Trace.Shard("infer.queue"),
	}
	b.net.WarmBatch(b.bmax)
	b.wg.Add(1)
	go b.run()
	return b
}

// Submit evaluates (fp, state) and blocks until the result is available:
// from the cache, by joining an in-flight evaluation of the same
// fingerprint, or by queueing for the next batch. state must stay valid
// (and unmutated) until Submit returns; the returned Eval is immutable and
// shared.
func (b *Broker) Submit(fp string, state []float64) *Eval {
	b.requests.Inc()
	if ev := b.cache.get(fp); ev != nil {
		b.hits.Inc()
		return ev
	}
	b.misses.Inc()
	b.mu.Lock()
	gen := b.gen.Load()
	if fl := b.pending[fp]; fl != nil && fl.gen == gen {
		b.mu.Unlock()
		b.coalesced.Inc()
		<-fl.done
		return fl.ev
	}
	// First submitter for this fingerprint in this generation: create the
	// flight (replacing any stale-generation one — its submitters still get
	// their pre-sync result, but nobody new joins it).
	fl := &flight{fp: fp, gen: gen, done: make(chan struct{})}
	b.pending[fp] = fl
	b.mu.Unlock()
	b.reqCh <- &request{fl: fl, state: state, enq: time.Now()}
	<-fl.done
	return fl.ev
}

// Sync stages a new weight snapshot (and optionally the BatchNorm running
// statistics that eval-mode inference reads), bumps the generation, and
// invalidates the cache. The weights are applied by the evaluation loop
// before its next forward. params/stats are copied; callers may reuse
// their buffers immediately.
func (b *Broker) Sync(params, stats []float64) {
	b.mu.Lock()
	b.pendingW = append(b.pendingW[:0], params...)
	b.pendingS = append(b.pendingS[:0], stats...)
	b.haveSync = true
	b.gen.Add(1)
	b.cache.clear()
	b.mu.Unlock()
	b.invalidations.Inc()
}

// Generation returns the current weight generation (starts at 0, +1 per
// Sync).
func (b *Broker) Generation() uint64 { return b.gen.Load() }

// Close drains the request queue and stops the evaluation goroutine. No
// Submit may be started after (or concurrently with) Close.
func (b *Broker) Close() {
	close(b.reqCh)
	b.wg.Wait()
}

// Stats is a point-in-time snapshot of the broker counters.
type Stats struct {
	Requests, Hits, Misses, Coalesced int64
	Evaluated, Batches                int64
	Evictions, Invalidations          int64
}

// Stats reads the broker counters (also exported through Config.Metrics
// under the "infer." prefix).
func (b *Broker) Stats() Stats {
	return Stats{
		Requests:      b.requests.Value(),
		Hits:          b.hits.Value(),
		Misses:        b.misses.Value(),
		Coalesced:     b.coalesced.Value(),
		Evaluated:     b.evaluated.Value(),
		Batches:       b.batches.Value(),
		Evictions:     b.evictions.Value(),
		Invalidations: b.invalidations.Value(),
	}
}

// run is the evaluation loop: block for one request, top up the batch
// (quiescence drain, or FlushWait timer when configured), evaluate, and
// deliver. A closed request channel drains remaining requests and exits.
func (b *Broker) run() {
	defer b.wg.Done()
	batch := make([]*request, 0, b.bmax)
	states := make([][]float64, b.bmax)
	outs := make([]nn.Output, b.bmax)
	var timer *time.Timer
	for {
		r, ok := <-b.reqCh
		if !ok {
			return
		}
		asm := b.trace.Start(obs.SpanInferBatchAssemble)
		batch = append(batch[:0], r)
		if b.flushWait > 0 && len(batch) < b.bmax {
			if timer == nil {
				timer = time.NewTimer(b.flushWait)
			} else {
				timer.Reset(b.flushWait)
			}
		topup:
			for len(batch) < b.bmax {
				select {
				case r2, ok2 := <-b.reqCh:
					if !ok2 {
						break topup
					}
					batch = append(batch, r2)
				case <-timer.C:
					break topup
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		} else {
		drain:
			for len(batch) < b.bmax {
				select {
				case r2, ok2 := <-b.reqCh:
					if !ok2 {
						break drain
					}
					batch = append(batch, r2)
				default:
					break drain
				}
			}
		}
		asm.End()
		b.evaluate(batch, states, outs)
	}
}

// evaluate runs one batch forward and delivers/caches per-sample results.
func (b *Broker) evaluate(batch []*request, states [][]float64, outs []nn.Output) {
	// Apply any staged sync and pin the generation under the same lock, so
	// the (weights, generation) pair this batch computes under is
	// consistent even when Sync races with it.
	b.mu.Lock()
	if b.haveSync {
		b.net.SetWeights(b.pendingW)
		if len(b.pendingS) > 0 {
			b.net.SetStats(b.pendingS)
		}
		b.haveSync = false
	}
	gen := b.gen.Load()
	b.mu.Unlock()

	n := len(batch)
	now := time.Now()
	traceNow := b.tracer.Now()
	for i, r := range batch {
		states[i] = r.state
		wait := now.Sub(r.enq)
		b.queueWait.Observe(float64(wait.Microseconds()))
		// The wait started on the submitting goroutine, so it is recorded
		// retroactively on the queue track rather than as a nested span.
		b.queueTr.Record(obs.SpanInferQueueWait, traceNow-wait.Nanoseconds(), traceNow)
	}
	fw := b.trace.Start(obs.SpanInferForward)
	b.net.Forward(states[:n], outs[:n], false)
	fw.End()
	b.batches.Inc()
	b.evaluated.Add(int64(n))
	b.occupancy.Observe(float64(n))

	// Cache, then retire the flight, then wake its submitters: a submitter
	// that resubmits the fingerprint as soon as it wakes must find the
	// result cached (or, with caching off, no finished flight to join).
	for i, r := range batch {
		fl := r.fl
		fl.ev = newEval(&outs[i])
		if b.cache.put(fl.fp, fl.ev, gen, &b.gen) {
			b.evictions.Inc()
		}
		b.mu.Lock()
		if b.pending[fl.fp] == fl {
			delete(b.pending, fl.fp)
		}
		b.mu.Unlock()
		close(fl.done)
	}
}

// newEval deep-copies one sample's output into an immutable Eval (one
// backing array for all four probability groups).
func newEval(out *nn.Output) *Eval {
	n := len(out.CoordProbs[0])
	backing := make([]float64, 4*n)
	ev := &Eval{DirPre: out.DirPre, Dir: out.Dir, Value: out.Value}
	for g := 0; g < 4; g++ {
		dst := backing[g*n : (g+1)*n]
		copy(dst, out.CoordProbs[g])
		ev.CoordProbs[g] = dst
	}
	return ev
}
