// Package drl is the paper's core contribution: the deep-reinforcement-
// learning design-space exploration framework (§4). Each exploration cycle
// starts from a blank routerless NoC; a deep two-headed policy/value
// network proposes an initial loop, a Monte Carlo tree search guides the
// following additions (with an ε-greedy override running Algorithm 1),
// rewards penalize repetitive/invalid/illegal loops, and the finished
// design's hop count relative to mesh trains both the network (advantage
// actor-critic) and the tree. The cycle runs on internal/search's episode
// driver, whose Worker here is the learner; multi-threaded exploration
// (§4.6) shares a parameter server and the search tree across learners.
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
	// Events, when non-nil, receives one JSONL episode event per
	// exploration cycle at debug level, flushed when Run returns.
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
	// Valid lists every fully connected design in the order learners
	// recorded them, after training (episode order with one learner).
	Valid []Design
	// Episodes actually run.
	Episodes int
	// ValueMSE per episode (training-progress signal; empty without DNN).
	ValueMSE []float64
	// TreeSize is the number of distinct designs recorded by the MCTS.
	TreeSize int
	// Outcomes lists every episode's final reward and guided step count,
	// in episode order.
	Outcomes []search.Outcome
}

// BestHopsCurve is the search's quality over time: one [episode, average
// hops] pair for each valid design that improved on every design of an
// earlier episode, in episode order. It is empty when no design is valid,
// and its last pair holds Best's hops (and Best's episode with one
// learner).
func (r *Result) BestHopsCurve() [][2]float64 {
	valid := slices.Clone(r.Valid)
	// Learners record designs out of episode order.
	slices.SortStableFunc(valid, func(a, b Design) int { return a.Episode - b.Episode })
	var curve [][2]float64
	for _, d := range valid {
		if len(curve) == 0 || d.AvgHops < curve[len(curve)-1][1] {
			curve = append(curve, [2]float64{float64(d.Episode), d.AvgHops})
		}
	}
	return curve
}

// Searcher runs the framework.
type Searcher struct {
	cfg Config
	// driver runs the episodes on the shared search tree (nil when the
	// search runs without MCTS) and counts them.
	driver search.Driver

	server *paramServer
	// initStats are the BatchNorm running statistics every network starts
	// from; lastStats are those of the learner that finished last, which
	// Model saves (guarded by mu).
	initStats, lastStats []float64
	// broker is the shared batched-inference service, non-nil only while a
	// Run with cfg.InferBatch > 0 is in progress. Run sets it before the
	// workers start and clears it after they finish.
	broker *infer.Broker

	mu     sync.Mutex
	result Result
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
	s := &Searcher{cfg: cfg, driver: search.Driver{Epsilon: cfg.Epsilon, Seed: cfg.Seed}}
	if cfg.UseMCTS {
		s.driver.Tree = mcts.NewTree(cfg.CPuct)
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
	episodes = s.driver.Episodes()
	s.mu.Lock()
	defer s.mu.Unlock()
	return episodes, len(s.result.Valid)
}

// Run executes the configured exploration cycles and returns the search
// result. With Threads == 1 the run is deterministic in Seed.
func (s *Searcher) Run() *Result {
	run := s.cfg.Trace.Shard("drl.run").Start(obs.SpanSearchRun)
	defer run.End()
	if s.cfg.UseDNN && s.cfg.InferBatch > 0 {
		stop := s.startBroker()
		defer stop()
	}
	outcomes := s.driver.Run(s.cfg.Episodes, s.cfg.Threads, func(tid int) (search.Worker, *obs.TraceShard) {
		l := s.newLearner(tid)
		return l, l.trace
	})
	s.mu.Lock()
	s.result.Episodes, s.result.Outcomes = len(outcomes), outcomes
	if s.driver.Tree != nil {
		s.result.TreeSize = s.driver.Tree.Size()
	}
	out := s.result
	s.mu.Unlock()
	s.cfg.Events.Flush()
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

// learner is one learner thread (§4.6): the search.Worker the driver runs
// on one goroutine, and the search.Decision of its guided steps. It keeps
// a private copy of the DNN and recycles every buffer an episode needs, so
// steady-state episodes allocate only what outlives them (valid designs,
// tree nodes, fingerprint keys). Only the guided steps are trained and
// backed up, but the final return reflects the completed design.
type learner struct {
	s   *Searcher
	tid int
	env *rl.Env
	// net is nil without a DNN; only the flat vectors below leave it.
	net                   *nn.PolicyValueNet
	weights, grads, stats []float64
	a2c                   rl.A2C
	traj                  rl.Trajectory
	// states holds one hop-matrix buffer per step, which StepRecord.State
	// aliases; state is the current step's, the one the policy sees.
	states [][]float64
	state  []float64
	// The reused outputs of Priors and policyEval.
	priors  []float64
	evalIn  [1][]float64
	evalOut [1]nn.Output
	eval    infer.Eval
	trace   *obs.TraceShard // the learner's span track, nil when off
	// guided is the self-paced budget (guidedActions); valid and
	// penalties count the episode's guided steps.
	guided, valid, penalties int
	// Metric handles, resolved once; all are no-ops without a registry.
	episodes, validDesigns           *obs.Counter
	rewardGauge, mseGauge, treeGauge *obs.Gauge
	rewardHist                       *obs.Histogram
}

// newLearner builds learner tid: its environment and, with a DNN, its
// network at the server's weights and the initial BatchNorm statistics.
func (s *Searcher) newLearner(tid int) *learner {
	env := rl.NewEnv(s.cfg.N, s.cfg.OverlapCap)
	if s.cfg.IllegalPenalty != 0 {
		env.IllegalPenalty = s.cfg.IllegalPenalty
	}
	env.MaxLoopLen = s.cfg.MaxLoopLen
	reg := s.cfg.Metrics
	l := &learner{
		s: s, tid: tid, env: env,
		a2c:          rl.A2C{ValueCoeff: 0.5},
		trace:        s.cfg.Trace.Shard(fmt.Sprintf("drl.worker.%02d", tid)),
		guided:       guidedActions(s.cfg.N),
		episodes:     reg.Counter(fmt.Sprintf("drl.worker.%02d.episodes", tid)),
		validDesigns: reg.Counter("drl.valid_designs"),
		rewardGauge:  reg.Gauge("drl.episode_reward"),
		mseGauge:     reg.Gauge("drl.value_mse"),
		treeGauge:    reg.Gauge("drl.tree_size"),
		rewardHist:   reg.Histogram("drl.episode_reward_hist"),
	}
	if s.cfg.UseDNN {
		l.net = nn.NewPolicyValueNet(s.cfg.NN, s.cfg.Seed+int64(tid))
		l.weights = s.server.snapshot()
		l.net.SetWeights(l.weights)
		l.net.SetStats(s.initStats)
		l.grads = make([]float64, len(l.weights))
		if s.broker != nil {
			// The evaluator also needs the BatchNorm running statistics,
			// which training forwards advance outside the weight vector.
			l.stats = make([]float64, l.net.NumStats())
			l.net.CopyStatsInto(l.stats)
			s.broker.Sync(l.weights, l.stats)
		}
	}
	return l
}

// Begin implements search.Worker.
func (l *learner) Begin() {
	l.env.Reset()
	l.traj.Steps = l.traj.Steps[:0]
	l.valid, l.penalties = 0, 0
}

// Propose implements search.Proposer. It encodes the state the policy
// sees, then chooses itself after more than maxPenalties consecutive
// non-valid actions (Algorithm 1) and at the first step with a DNN (a raw
// sample, Fig. 4, which may be penalized, teaching constraint compliance).
func (l *learner) Propose(rng *rand.Rand) (id int, ok, proposed bool) {
	step := len(l.traj.Steps)
	if step == len(l.states) {
		l.states = append(l.states, nil)
	}
	l.state = l.env.StateInto(l.states[step])
	l.states[step] = l.state
	switch {
	case l.penalties > maxPenalties:
		id, ok = l.Greedy()
		return id, ok, true
	case step == 0 && l.net != nil:
		return l.sampleRaw(rng), true, true
	}
	return 0, false, false
}

// Step implements search.Worker, recording the step in the trajectory.
func (l *learner) Step(id int) float64 {
	a := rl.ActionOf(id)
	r, kind := l.env.Step(a)
	l.traj.Steps = append(l.traj.Steps, rl.StepRecord{State: l.state, Action: a})
	if kind == rl.Valid {
		l.penalties = 0
		l.valid++
	} else {
		l.penalties++
	}
	return r
}

// Stop implements search.Worker: the guided phase ends after guided valid
// additions or at a step cap that leaves room for the penalties.
func (l *learner) Stop(steps int) bool {
	return l.valid >= l.guided || steps >= l.guided+maxPenalties*(l.guided+1)+4
}

// Fingerprint, Actions and Legal implement search.Worker on the environment.
func (l *learner) Fingerprint() string { return l.env.Fingerprint() }

func (l *learner) Actions() []int { return l.env.Actions() }

func (l *learner) Legal(id int) bool { return l.env.Legal(id) }

// Finish implements search.Worker: Algorithm 1 adds loops while the design
// is not fully connected, then only while they reduce average hops.
func (l *learner) Finish() float64 {
	sp := l.trace.Start(obs.SpanGreedy)
	rl.GreedyImprove(l.env)
	sp.End()
	return l.env.FinalReward()
}

// End implements search.Worker: it self-paces the guided budget, trains
// on the returns, records the design and reports the episode.
func (l *learner) End(out search.Outcome, returns []float64) {
	s, env := l.s, l.env
	valid := env.FullyConnected()
	design := Design{Episode: out.Episode}
	if valid {
		design.Topo, design.AvgHops, design.Loops = env.Topology().Clone(), env.AverageHops(), env.Topology().NumLoops()
		l.guided = min(l.guided+1, guidedActions(s.cfg.N))
	} else if l.guided > 1 {
		l.guided--
	}
	mse := 0.0
	if l.net != nil {
		mse = l.train(returns)
	}

	s.mu.Lock()
	if l.net != nil {
		// Learners finish out of episode order; each MSE goes to its slot.
		for len(s.result.ValueMSE) < out.Episode {
			s.result.ValueMSE = append(s.result.ValueMSE, 0)
		}
		s.result.ValueMSE[out.Episode-1] = mse
		// Model saves the statistics of the learner that finished last.
		l.net.CopyStatsInto(s.lastStats)
		l.mseGauge.Set(mse)
	}
	if valid {
		s.result.Valid = append(s.result.Valid, design)
		if s.result.Best.Topo == nil || design.AvgHops < s.result.Best.AvgHops {
			s.result.Best = design
		}
		l.validDesigns.Inc()
	}
	s.mu.Unlock()

	l.episodes.Inc()
	l.rewardGauge.Set(out.Final)
	l.rewardHist.Observe(out.Final)
	if s.driver.Tree != nil {
		l.treeGauge.Set(float64(s.driver.Tree.Size()))
	}
	if s.cfg.Events.Enabled(obs.LevelDebug) {
		fields := map[string]any{"episode": out.Episode, "worker": l.tid, "reward": out.Final, "steps": out.Steps, "valid": valid}
		if l.net != nil {
			fields["value_mse"] = mse
		}
		if valid {
			fields["avg_hops"], fields["loops"] = design.AvgHops, design.Loops
		}
		s.cfg.Events.Debug(obs.EventEpisode, fields)
	}
}

// train is the learn step, returning the value MSE: A2C gradients on the
// returns, one fused push/pull through the parameter server, and with a
// broker the new weights and running statistics sent to its evaluator.
func (l *learner) train(returns []float64) float64 {
	tr := l.trace.Start(obs.SpanTrain)
	net := l.net
	net.ZeroGrads()
	mse := l.a2c.Accumulate(net, l.traj, returns)
	net.CopyGradsInto(l.grads)
	l.s.server.applyAndFetch(l.grads, l.weights)
	net.SetWeights(l.weights)
	if b := l.s.broker; b != nil {
		net.CopyStatsInto(l.stats)
		b.Sync(l.weights, l.stats)
	}
	tr.End()
	return mse
}

// Greedy implements search.Decision with one Algorithm 1 pick, traced as
// an rl.greedy span.
func (l *learner) Greedy() (int, bool) {
	sp := l.trace.Start(obs.SpanGreedy)
	a, ok := rl.Greedy(l.env)
	sp.End()
	return a.ID(), ok
}

// Priors implements search.Decision: each legal action's (unnormalized)
// policy probability at the current state, in the learner's buffer;
// without a DNN, priors are uniform.
func (l *learner) Priors(ids []int) []float64 {
	priors := slices.Grow(l.priors[:0], len(ids))[:len(ids)]
	l.priors = priors
	if l.net == nil {
		for i := range priors {
			priors[i] = 1
		}
		return priors
	}
	probs, dir := l.policyEval(l.state)
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
// statistics. The returned probabilities alias the learner's buffers,
// valid until the next call.
func (l *learner) policyEval(state []float64) (probs *[4][]float64, dir float64) {
	if b := l.s.broker; b != nil {
		sub := l.trace.Start(obs.SpanInferSubmit)
		b.Submit(state, &l.eval)
		sub.End()
		return &l.eval.CoordProbs, l.eval.Dir
	}
	fw := l.trace.Start(obs.SpanNNForward)
	l.evalIn[0] = state
	l.net.Forward(l.evalIn[:], l.evalOut[:], false)
	fw.End()
	out := &l.evalOut[0]
	return &out.CoordProbs, out.Dir
}

// sampleRaw draws an action id directly from the DNN output heads at the
// current state, the paper's raw policy sample for the episode's initial
// action.
func (l *learner) sampleRaw(rng *rand.Rand) int {
	probs, dirPCW := l.policyEval(l.state)
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
