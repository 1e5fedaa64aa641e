// Package drl is the paper's core contribution: the deep-reinforcement-
// learning design-space exploration framework (§4). Each exploration cycle
// starts from a blank routerless NoC; a deep two-headed policy/value
// network proposes an initial loop, a Monte Carlo tree search guides the
// following additions (with an ε-greedy override running Algorithm 1),
// rewards penalize repetitive/invalid/illegal loops, and the finished
// design's hop count relative to mesh trains both the network (advantage
// actor-critic) and the tree. Multi-threaded exploration (§4.6) shares a
// parameter server and the search tree across learner goroutines.
package drl

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"routerless/internal/infer"
	"routerless/internal/mcts"
	"routerless/internal/nn"
	"routerless/internal/obs"
	"routerless/internal/rl"
	"routerless/internal/search"
	"routerless/internal/topo"
)

// Config parameterizes a search.
type Config struct {
	// N is the NoC side; OverlapCap the wiring constraint (>0).
	N, OverlapCap int
	// Episodes is the total number of exploration cycles across all
	// threads; Threads the learner goroutine count (§4.6).
	Episodes, Threads int
	// Epsilon is the ε-greedy probability of deferring to Algorithm 1
	// (Table 1 explores 0.05–0.3).
	Epsilon float64
	// CPuct is the exploration constant c of Eq. 22.
	CPuct float64
	// UseDNN and UseMCTS toggle the framework's two halves; disabling
	// one yields the ablation baselines of EXPERIMENTS.md.
	UseDNN, UseMCTS bool
	// NN sizes the policy/value network; a zero value selects a
	// reduced-width network appropriate for the overall budget.
	NN nn.Config
	// LR is the actor-critic learning rate (Eqs. 17–20).
	LR float64
	// IllegalPenalty overrides the environment's −5N illegal-action
	// reward when nonzero (the reward-shaping ablation).
	IllegalPenalty float64
	// MaxLoopLen, when > 0, restricts loop perimeters — the additional
	// design constraint of §6.2.
	MaxLoopLen int
	// InferBatch, when > 0, routes policy/value evaluations through a
	// shared batched-inference broker (internal/infer): learner goroutines
	// submit requests that are batched and evaluated in one forward. The
	// batch cap is the smaller of InferBatch and the number of learners,
	// since each learner has at most one request outstanding. Zero keeps
	// the per-worker Forward path (the single-thread determinism oracle).
	InferBatch int
	// Seed makes single-threaded runs fully deterministic.
	Seed int64
	// Init, when non-nil, warm-starts the search from a model, e.g. one
	// nn.UnmarshalModel read back from a previous search's Model: every
	// network starts from its weights and its BatchNorm running
	// statistics. Its Cfg must equal NN.
	Init *nn.PolicyValueNet
	// Metrics, when non-nil, receives search telemetry: per-worker episode
	// counters, episode reward / value-MSE gauges, gradient norms pre/post
	// clip, the update counter, and MCTS tree size.
	Metrics *obs.Registry
	// Events, when non-nil, receives structured run events: run_start and
	// run_stop at info level plus one episode event per exploration cycle
	// at debug level.
	Events *obs.Logger
	// Trace, when non-nil, records hierarchical spans: drl.run on the Run
	// goroutine, and per worker one track of drl.episode spans containing
	// mcts.select / mcts.expand / mcts.backup / drl.train plus the
	// inference spans (infer.submit or nn.forward). A nil tracer costs one
	// nil check per span site and zero allocation.
	Trace *obs.Tracer
}

// DefaultConfig returns a balanced configuration for an n×n search under
// the given overlap cap.
func DefaultConfig(n, overlapCap int) Config {
	return Config{
		N: n, OverlapCap: overlapCap,
		Episodes: 30, Threads: 1,
		Epsilon: 0.1, CPuct: 1.5,
		UseDNN: true, UseMCTS: true,
		NN:   nn.Config{N: n, BaseChannels: 4, Pools: 3},
		LR:   1e-3,
		Seed: 1,
	}
}

// Fixed training and episode settings.
const (
	// gradClip bounds each gradient element of an update (Eqs. 19–20).
	gradClip = 1.0
	// maxPenalties bounds consecutive non-valid actions before the
	// episode falls back to the greedy action.
	maxPenalties = 8
)

// guidedActions is the number of valid loop additions an n×n episode's
// DNN/MCTS policy chooses before Algorithm 1 completes the design (Fig. 4:
// "additional actions can be taken, if necessary, to complete the
// design"). The guided prefix defines the design-space region being
// explored; completion makes the design evaluable. Each worker's value
// self-paces between 1 and this cap: episodes that dead-end shorten it,
// successes restore it.
func guidedActions(n int) int { return max(2, n/2) }

// Design is one fully connected design discovered during search.
type Design struct {
	Topo    *topo.Topology
	AvgHops float64
	Loops   int
	Episode int
}

// Result summarizes a search.
type Result struct {
	// Best is the minimum-hop fully connected design (nil Topo when the
	// search never completed a design).
	Best Design
	// Valid lists every fully connected design, in discovery order.
	Valid []Design
	// Episodes actually run.
	Episodes int
	// ValueMSE per episode (training-progress signal; empty without DNN).
	ValueMSE []float64
	// TreeSize is the number of distinct designs recorded by the MCTS.
	TreeSize int
}

// Searcher runs the framework.
type Searcher struct {
	cfg Config
	// tree is the shared search tree, nil when the search runs without
	// MCTS.
	tree *mcts.Tree

	server *paramServer
	// initStats are the BatchNorm running statistics every network starts
	// from; lastStats are those of the learner that finished last, which
	// Model saves (guarded by mu).
	initStats, lastStats []float64
	// broker is the shared batched-inference service, non-nil only while a
	// Run with cfg.InferBatch > 0 is in progress. Run sets it before the
	// workers start and clears it after they finish.
	broker *infer.Broker

	mu      sync.Mutex
	result  Result
	episode int
}

// CheckConfig reports the errors New returns for cfg without building
// anything: a NoC size outside 2..topo.MaxJSONSide, an overlap cap below
// one, and a network config for another NoC size. Only an Init model of
// another architecture waits for New, which fills in the default network
// config first. A command checks its configuration here before it
// creates any output file.
func CheckConfig(cfg Config) error {
	// topo.MaxJSONSide is also the largest N nn.UnmarshalModel accepts, so
	// every search can save a model it can load back.
	if cfg.N < 2 || cfg.N > topo.MaxJSONSide {
		return fmt.Errorf("drl: NoC size %d out of range 2..%d", cfg.N, topo.MaxJSONSide)
	}
	if cfg.OverlapCap < 1 {
		return fmt.Errorf("drl: search requires a node overlapping cap (got %d)", cfg.OverlapCap)
	}
	if cfg.NN.N != 0 && cfg.NN.N != cfg.N {
		return fmt.Errorf("drl: NN config N=%d mismatches NoC N=%d", cfg.NN.N, cfg.N)
	}
	return nil
}

// New validates the configuration (CheckConfig) and builds a searcher.
func New(cfg Config) (*Searcher, error) {
	if err := CheckConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Episodes < 1 {
		cfg.Episodes = 1
	}
	if cfg.NN.N == 0 {
		cfg.NN = nn.Config{N: cfg.N, BaseChannels: 4, Pools: 3}
	}
	s := &Searcher{cfg: cfg}
	if cfg.UseMCTS {
		s.tree = mcts.NewTree(cfg.CPuct)
	}
	if cfg.UseDNN {
		init := cfg.Init
		if init == nil {
			init = nn.NewPolicyValueNet(cfg.NN, cfg.Seed)
		} else if init.Cfg != cfg.NN {
			return nil, fmt.Errorf("drl: Init model config %+v mismatches NN config %+v", init.Cfg, cfg.NN)
		}
		s.server = newParamServer(init.GetWeights(), cfg.LR, gradClip, cfg.Metrics)
		s.initStats = make([]float64, init.NumStats())
		init.CopyStatsInto(s.initStats)
		s.lastStats = slices.Clone(s.initStats)
	}
	return s, nil
}

// CheckRunFlags rejects run settings the command-line tools must not start
// a search with: fewer than one episode or learner thread, or an ε outside
// [0, 1] (NaN included). New would silently raise a zero episode or thread
// count to one. The errors name the flags nocexplore and nocgen share.
func CheckRunFlags(episodes, threads int, epsilon float64) error {
	if episodes < 1 {
		return fmt.Errorf("-episodes %d must be at least 1", episodes)
	}
	if threads < 1 {
		return fmt.Errorf("-threads %d must be at least 1", threads)
	}
	if !(epsilon >= 0 && epsilon <= 1) {
		return fmt.Errorf("-epsilon %v is outside [0, 1]", epsilon)
	}
	return nil
}

// Model returns the search's model, nil when it runs without a DNN: the
// parameter server's current weights with the BatchNorm running
// statistics of the learner that finished last (with one learner, its
// network exactly). Save it with nn.MarshalModel and pass it back as
// Config.Init to resume training later.
func (s *Searcher) Model() *nn.PolicyValueNet {
	if s.server == nil {
		return nil
	}
	net := nn.NewPolicyValueNet(s.cfg.NN, s.cfg.Seed)
	net.SetWeights(s.server.snapshot())
	s.mu.Lock()
	net.SetStats(s.lastStats)
	s.mu.Unlock()
	return net
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Searcher {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Progress reports the episodes completed and valid designs found so far;
// safe to call concurrently with Run (e.g. from a progress-printing
// goroutine).
func (s *Searcher) Progress() (episodes, valid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.episode, len(s.result.Valid)
}

// Run executes the configured exploration cycles and returns the search
// result. With Threads == 1 the run is deterministic in Seed.
func (s *Searcher) Run() *Result {
	s.cfg.Events.Info(obs.EventRunStart, map[string]any{
		"n":        s.cfg.N,
		"cap":      s.cfg.OverlapCap,
		"episodes": s.cfg.Episodes,
		"threads":  s.cfg.Threads,
		"epsilon":  s.cfg.Epsilon,
		"use_dnn":  s.cfg.UseDNN,
		"use_mcts": s.cfg.UseMCTS,
	})
	run := s.cfg.Trace.Shard("drl.run").Start(obs.SpanSearchRun)
	defer run.End()
	if s.cfg.UseDNN && s.cfg.InferBatch > 0 {
		stop := s.startBroker()
		defer stop()
	}
	var wg sync.WaitGroup
	perThread := s.cfg.Episodes / s.cfg.Threads
	extra := s.cfg.Episodes % s.cfg.Threads
	for t := 0; t < s.cfg.Threads; t++ {
		n := perThread
		if t < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(tid, episodes int) {
			defer wg.Done()
			s.worker(tid, episodes)
		}(t, n)
	}
	wg.Wait()
	s.mu.Lock()
	if s.tree != nil {
		s.result.TreeSize = s.tree.Size()
	}
	out := s.result
	s.mu.Unlock()
	stop := map[string]any{
		"episodes":  out.Episodes,
		"valid":     len(out.Valid),
		"tree_size": out.TreeSize,
	}
	if out.Best.Topo != nil {
		stop["best_hops"] = out.Best.AvgHops
		stop["best_loops"] = out.Best.Loops
	}
	s.cfg.Events.Info(obs.EventRunStop, stop)
	return &out
}

// startBroker builds the dedicated evaluator network from the parameter
// server's current weights and starts the shared inference broker. It
// must run before the workers start; the returned stop function closes the
// broker after they have finished.
func (s *Searcher) startBroker() func() {
	net := nn.NewPolicyValueNet(s.cfg.NN, s.cfg.Seed)
	net.SetWeights(s.server.snapshot())
	net.SetStats(s.initStats)
	s.broker = infer.New(infer.Config{
		Net:     net,
		Batch:   min(s.cfg.InferBatch, s.cfg.Threads),
		Metrics: s.cfg.Metrics,
		Trace:   s.cfg.Trace,
	})
	return func() {
		s.broker.Close()
		s.broker = nil
	}
}

// workerNet builds learner tid's network with the parameter server's
// current weights, returned as the learner's weight buffer, and the
// search's initial BatchNorm running statistics.
func (s *Searcher) workerNet(tid int) (net *nn.PolicyValueNet, weights []float64) {
	net = nn.NewPolicyValueNet(s.cfg.NN, s.cfg.Seed+int64(tid))
	weights = make([]float64, net.NumParams())
	s.server.snapshotInto(weights)
	net.SetWeights(weights)
	net.SetStats(s.initStats)
	return net, weights
}

// worker is one learner thread (§4.6): it keeps a private copy of the DNN,
// refreshes weights from the parameter server before each episode, and
// pushes gradients back after each episode.
func (s *Searcher) worker(tid, episodes int) {
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(tid)*7919))
	var net *nn.PolicyValueNet
	var weights, grads, stats []float64
	if s.cfg.UseDNN {
		// Each worker owns its network — and with it the network's scratch
		// arena (padded conv planes, activation/gradient tensors), which is
		// not goroutine-safe. Only flat weight/grad vectors cross the
		// worker boundary, through these per-worker reusable buffers, so
		// the steady-state training loop performs no heap allocation.
		net, weights = s.workerNet(tid)
		grads = make([]float64, len(weights))
		if s.broker != nil {
			// The broker's evaluator must track not just the weights but the
			// BatchNorm running statistics eval-mode inference reads (they
			// evolve during training forwards and are NOT part of the flat
			// weight vector).
			stats = make([]float64, net.NumStats())
			net.CopyStatsInto(stats)
			s.broker.Sync(weights, stats)
		}
	}
	a2c := rl.A2C{Gamma: search.Gamma, ValueCoeff: 0.5}
	ar := s.newArena()
	// One trace shard per worker goroutine (the ownership rule): all of
	// this worker's spans land on one track.
	ar.trace = s.cfg.Trace.Shard(fmt.Sprintf("drl.worker.%02d", tid))
	// Metric handles are resolved once per worker; all of them are no-ops
	// when the search runs without a registry.
	reg := s.cfg.Metrics
	epCounter := reg.Counter(fmt.Sprintf("drl.worker.%02d.episodes", tid))
	rewardGauge := reg.Gauge("drl.episode_reward")
	rewardHist := reg.Histogram("drl.episode_reward_hist")
	mseGauge := reg.Gauge("drl.value_mse")
	validCounter := reg.Counter("drl.valid_designs")
	treeGauge := reg.Gauge("drl.tree_size")
	// The guided-phase length self-paces: episodes that dead-end without
	// a complete design shorten the guided prefix (exploring closer to
	// the reliable completion heuristic); successes lengthen it back up
	// to guidedActions, recovering exploration breadth.
	maxGuided := guidedActions(s.cfg.N)
	guided := maxGuided
	for ep := 0; ep < episodes; ep++ {
		epSpan := ar.trace.Start(obs.SpanEpisode)
		traj, path, design := s.runEpisode(net, rng, guided, ar)
		if design == nil {
			if guided > 1 {
				guided--
			}
		} else if guided < maxGuided {
			guided++
		}

		// The discounted returns-to-go drive both the tree backup and
		// training.
		returns := a2c.ReturnsToGo(traj)
		if s.tree != nil {
			bk := ar.trace.Start(obs.SpanMCTSBackup)
			s.tree.Backup(path, returns)
			bk.End()
		}

		mse := 0.0
		if net != nil {
			tr := ar.trace.Start(obs.SpanTrain)
			net.ZeroGrads()
			mse = a2c.Accumulate(net, traj, returns)
			net.CopyGradsInto(grads)
			// Fused push/pull: one pass clips, applies the SGD step, and
			// copies the updated weights back out under one lock, so the
			// fetch is exactly this worker's post-update weights.
			s.server.applyAndFetch(grads, weights)
			net.ZeroGrads()
			net.SetWeights(weights)
			if s.broker != nil {
				// Publish the refreshed weights (and the running statistics
				// the training forwards just advanced) to the shared
				// evaluator, which applies them before its next forward.
				net.CopyStatsInto(stats)
				s.broker.Sync(weights, stats)
			}
			tr.End()
		}

		s.mu.Lock()
		s.episode++
		epNum := s.episode
		s.result.Episodes = epNum
		if net != nil {
			s.result.ValueMSE = append(s.result.ValueMSE, mse)
		}
		if design != nil {
			design.Episode = epNum
			s.result.Valid = append(s.result.Valid, *design)
			if s.result.Best.Topo == nil || design.AvgHops < s.result.Best.AvgHops {
				s.result.Best = *design
			}
		}
		s.mu.Unlock()

		epCounter.Inc()
		rewardGauge.Set(traj.Final)
		rewardHist.Observe(traj.Final)
		if net != nil {
			mseGauge.Set(mse)
		}
		if design != nil {
			validCounter.Inc()
		}
		if s.tree != nil {
			// treeGauge is a nil-safe no-op without a registry, like every
			// other handle in this loop — gate only on the tree existing.
			treeGauge.Set(float64(s.tree.Size()))
		}
		if s.cfg.Events.Enabled(obs.LevelDebug) {
			fields := map[string]any{
				"episode": epNum,
				"worker":  tid,
				"reward":  traj.Final,
				"steps":   len(traj.Steps),
				"valid":   design != nil,
			}
			if net != nil {
				fields["value_mse"] = mse
			}
			if design != nil {
				fields["avg_hops"] = design.AvgHops
				fields["loops"] = design.Loops
			}
			s.cfg.Events.Debug(obs.EventEpisode, fields)
		}
		epSpan.End()
	}
	if net != nil {
		s.mu.Lock()
		net.CopyStatsInto(s.lastStats)
		s.mu.Unlock()
	}
}

// episodeArena is one worker's reusable episode state. Every buffer an
// episode needs — the environment itself (with its topology and greedy
// score cache), the trajectory and tree path, one state matrix per
// decision point, and the flat prior weights — is allocated once per
// worker and recycled, so steady-state episodes touch the heap only for
// results that outlive them (valid designs, new tree nodes, fingerprint
// keys).
//
// The arena is also the search.Decision of its worker's guided steps: the
// environment's legal action ids, Algorithm 1's pick and the policy
// network's priors for the current state.
type episodeArena struct {
	env *rl.Env
	// policyEval evaluates on the worker's network (nil without a DNN)
	// or, while one runs, on the shared broker.
	net    *nn.PolicyValueNet
	broker *infer.Broker
	traj   rl.Trajectory
	path   []mcts.PathStep
	// states holds one reusable hop-matrix buffer per trajectory step;
	// StepRecord.State aliases these until the next episode overwrites
	// them, which is safe because training consumes the trajectory before
	// the worker starts its next episode.
	states [][]float64
	// state is the current step's encoding, the one the policy sees.
	state []float64
	// priors holds the prior weight of each legal action, aligned with the
	// slice Actions returned.
	priors []float64
	// evalIn and evalOut are the one-element batch of the worker's own
	// network evaluation (policyEval), reused so that call allocates
	// nothing.
	evalIn  [1][]float64
	evalOut [1]nn.Output
	// eval is the worker's result slot on the broker route, reused by
	// every Submit.
	eval infer.Eval
	// trace is the worker's span recorder (nil when tracing is off); owned
	// by the worker goroutine like every other arena buffer.
	trace *obs.TraceShard
}

// newArena builds a worker's arena with a configured environment.
func (s *Searcher) newArena() *episodeArena {
	env := rl.NewEnv(s.cfg.N, s.cfg.OverlapCap)
	if s.cfg.IllegalPenalty != 0 {
		env.IllegalPenalty = s.cfg.IllegalPenalty
	}
	env.MaxLoopLen = s.cfg.MaxLoopLen
	return &episodeArena{env: env, broker: s.broker}
}

// stateBuf returns the reusable state buffer for trajectory step i.
func (ar *episodeArena) stateBuf(i int) []float64 {
	for len(ar.states) <= i {
		ar.states = append(ar.states, nil)
	}
	return ar.states[i]
}

// runEpisode performs one exploration cycle (Fig. 4) and returns the
// trajectory of guided steps, the tree path, and the finished design when
// fully connected. The trajectory and path alias arena buffers valid until
// the next runEpisode call on the same arena.
//
// Each episode has two phases. The guided phase takes up to guided (at
// most guidedActions) valid loop additions chosen by the DNN/MCTS policy
// (ε-greedy over Algorithm 1); it is the exploratory part that gets
// trained and backed up. The completion phase then adds loops with
// Algorithm 1 until the design cannot improve, making the episode's design
// evaluable ("additional actions ... to complete the design"). The final
// return reflects the whole design, so guided prefixes leading to poor
// completions are penalized through training.
func (s *Searcher) runEpisode(net *nn.PolicyValueNet, rng *rand.Rand, guided int, ar *episodeArena) (rl.Trajectory, []mcts.PathStep, *Design) {
	env := ar.env
	env.Reset()
	ar.net = net
	ar.traj.Steps = ar.traj.Steps[:0]
	ar.traj.Final = 0
	ar.path = ar.path[:0]

	maxSteps := guided + maxPenalties*(guided+1) + 4
	penalties := 0
	valid := 0
	first := true
	for len(ar.traj.Steps) < maxSteps && valid < guided {
		fp := env.Fingerprint()
		step := len(ar.traj.Steps)
		state := env.StateInto(ar.stateBuf(step))
		ar.states[step], ar.state = state, state
		var id int
		var ok bool
		switch {
		case penalties > maxPenalties:
			id, ok = ar.Greedy()
		case first && net != nil:
			// The DNN proposes the initial action raw (Fig. 4); it may
			// be penalized, teaching constraint compliance. Backup then
			// records it as an edge that Select prunes.
			id, ok = ar.sampleRaw(rng), true
		default:
			id, ok = search.Choose(s.tree, fp, ar, s.cfg.Epsilon, rng, ar.trace)
		}
		first = false
		if !ok {
			break // no legal action remains
		}
		a := rl.ActionOf(id)
		r, kind := env.Step(a)
		ar.traj.Steps = append(ar.traj.Steps, rl.StepRecord{State: state, Action: a, Reward: r})
		ar.path = append(ar.path, mcts.PathStep{Fingerprint: fp, Action: id})
		if kind == rl.Valid {
			penalties = 0
			valid++
		} else {
			penalties++
		}
	}

	complete(env, ar.trace)

	ar.traj.Final = env.FinalReward()
	var design *Design
	if env.FullyConnected() {
		design = &Design{
			Topo:    env.Topology().Clone(),
			AvgHops: env.AverageHops(),
			Loops:   env.Topology().NumLoops(),
		}
	}
	return ar.traj, ar.path, design
}

// complete drives Algorithm 1 until the design stops improving: while not
// fully connected every greedy addition helps; afterwards additions
// continue only while they reduce average hops (rl.GreedyImprove's
// stopping rule).
func complete(env *rl.Env, trace *obs.TraceShard) {
	sp := trace.Start(obs.SpanGreedy)
	rl.GreedyImprove(env)
	sp.End()
}

// Actions implements search.Decision.
func (ar *episodeArena) Actions() []int { return ar.env.Actions() }

// Legal implements search.Decision.
func (ar *episodeArena) Legal(id int) bool { return ar.env.Legal(id) }

// Greedy implements search.Decision with one Algorithm 1 pick, traced as
// an rl.greedy span.
func (ar *episodeArena) Greedy() (int, bool) {
	sp := ar.trace.Start(obs.SpanGreedy)
	a, ok := rl.Greedy(ar.env)
	sp.End()
	return a.ID(), ok
}

// Priors implements search.Decision: each legal action's (unnormalized)
// policy probability at the current state, in the arena's prior buffer;
// without a DNN, priors are uniform.
func (ar *episodeArena) Priors(ids []int) []float64 {
	priors := slices.Grow(ar.priors[:0], len(ids))[:len(ids)]
	ar.priors = priors
	if ar.net == nil {
		for i := range priors {
			priors[i] = 1
		}
		return priors
	}
	probs, dir := ar.policyEval(ar.state)
	pcw := (1 + dir) / 2
	for i, id := range ids {
		a := rl.ActionOf(id)
		p := probs[0][a.X1] * probs[1][a.Y1] *
			probs[2][a.X2] * probs[3][a.Y2]
		if a.Dir == topo.Clockwise {
			p *= pcw
		} else {
			p *= 1 - pcw
		}
		priors[i] = p
	}
	return priors
}

// policyEval returns the policy heads (four coordinate softmax groups and
// the tanh direction) for the given state: through the shared inference
// broker when one is running, so that concurrent learners batch into one
// forward, or via a one-sample Forward on the worker's own network
// otherwise. Both paths are byte-identical for equal weights and running
// statistics. The returned probabilities alias arena buffers valid until
// the next call.
func (ar *episodeArena) policyEval(state []float64) (probs *[4][]float64, dir float64) {
	if ar.broker != nil {
		sub := ar.trace.Start(obs.SpanInferSubmit)
		ar.broker.Submit(state, &ar.eval)
		sub.End()
		return &ar.eval.CoordProbs, ar.eval.Dir
	}
	fw := ar.trace.Start(obs.SpanNNForward)
	ar.evalIn[0] = state
	ar.net.Forward(ar.evalIn[:], ar.evalOut[:], false)
	fw.End()
	out := &ar.evalOut[0]
	return &out.CoordProbs, out.Dir
}

// sampleRaw draws an action id directly from the DNN output heads at the
// current state, the paper's raw policy sample for the episode's initial
// action.
func (ar *episodeArena) sampleRaw(rng *rand.Rand) int {
	probs, dirPCW := ar.policyEval(ar.state)
	pick := func(probs []float64) int {
		r := rng.Float64()
		acc := 0.0
		for i, p := range probs {
			acc += p
			if r < acc {
				return i
			}
		}
		return len(probs) - 1
	}
	dir := topo.Counterclockwise
	if rng.Float64() < (1+dirPCW)/2 {
		dir = topo.Clockwise
	}
	return rl.Action{
		X1: pick(probs[0]), Y1: pick(probs[1]),
		X2: pick(probs[2]), Y2: pick(probs[3]),
		Dir: dir,
	}.ID()
}
