// Package routerless is a Go implementation of the deep-reinforcement-
// learning framework for routerless network-on-chip design exploration
// from "A Deep Reinforcement Learning Framework for Architectural
// Exploration: A Routerless NoC Case Study" (HPCA 2020), together with
// everything needed to evaluate it: the REC and IMR baselines, a
// cycle-accurate NoC simulator for routerless rings and VC mesh routers,
// synthetic and application traffic models, and calibrated power/area
// models.
//
// # Quick start
//
//	design, err := routerless.Explore(routerless.ExploreOptions{
//		N: 4, OverlapCap: 6, Episodes: 20,
//	})
//	// design.Topology is a fully connected 4x4 routerless NoC.
//	curve := routerless.SweepLatency(design.Topology, routerless.SweepOptions{
//		Pattern: routerless.UniformRandom,
//		Rates:   []float64{0.01, 0.05, 0.1},
//	})
//
// The facade re-exports the most common entry points; the full surface
// lives in the internal packages and the cmd tools (nocgen, nocsim,
// nocexplore, benchtab).
package routerless

import (
	"fmt"

	"routerless/internal/drl"
	"routerless/internal/imr"
	"routerless/internal/mesh"
	"routerless/internal/nn"
	"routerless/internal/power"
	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/sim"
	"routerless/internal/stats"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// Topology is a routerless NoC loop configuration.
type Topology = topo.Topology

// Node identifies a grid position.
type Node = topo.Node

// Loop is a unidirectional rectangular ring.
type Loop = topo.Loop

// Pattern selects a synthetic traffic pattern.
type Pattern = traffic.Pattern

// Traffic pattern names, re-exported for SweepOptions.
const (
	UniformRandom = traffic.UniformRandom
	Tornado       = traffic.Tornado
	BitComplement = traffic.BitComplement
	BitRotation   = traffic.BitRotation
	Shuffle       = traffic.Shuffle
	Transpose     = traffic.Transpose
)

// GenerateREC builds the deterministic REC baseline for an n×n NoC.
func GenerateREC(n int) (*Topology, error) { return rec.Generate(n) }

// GenerateIMR runs the evolutionary IMR baseline for an n×n NoC and
// returns its best individual's topology.
func GenerateIMR(n int, seed int64) *Topology {
	cfg := imr.DefaultConfig(n)
	cfg.Seed = seed
	return imr.Run(cfg).Best.Topo
}

// GenerateGreedy runs the pure Algorithm-1 heuristic under a wiring cap.
func GenerateGreedy(n, overlapCap int) *Topology {
	env := rl.NewEnv(n, overlapCap)
	rl.GreedyComplete(env)
	return env.Topology()
}

// MeshAverageHops returns the average hop count of an n×n mesh, the
// reference used by the DRL reward function.
func MeshAverageHops(n int) float64 { return mesh.AverageHops(n, n) }

// ExploreOptions configures a DRL design-space search.
type ExploreOptions struct {
	// N is the NoC side length; OverlapCap the wiring constraint.
	N, OverlapCap int
	// Episodes is the number of exploration cycles (default 30).
	Episodes int
	// Threads enables the multi-threaded learners of §4.6 (default 1,
	// which is fully deterministic in Seed).
	Threads int
	// Epsilon is the ε-greedy probability of an Algorithm-1 move.
	Epsilon float64
	// Seed fixes all randomness.
	Seed int64
	// FullDNN selects the paper's full-width network (16 base channels);
	// the default uses a narrow network suitable for interactive budgets.
	FullDNN bool
}

// Design is a search outcome.
type Design struct {
	Topology *Topology
	AvgHops  float64
	Loops    int
	// ValidDesigns is the number of fully connected designs the search
	// discovered in total.
	ValidDesigns int
}

// Explore runs the DRL framework and returns the best discovered design.
func Explore(opt ExploreOptions) (*Design, error) {
	cfg := drl.DefaultConfig(opt.N, opt.OverlapCap)
	if opt.Episodes > 0 {
		cfg.Episodes = opt.Episodes
	}
	if opt.Threads > 0 {
		cfg.Threads = opt.Threads
	}
	if opt.Epsilon > 0 {
		cfg.Epsilon = opt.Epsilon
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	if opt.FullDNN {
		cfg.NN = nn.DefaultConfig(opt.N)
	}
	s, err := drl.New(cfg)
	if err != nil {
		return nil, err
	}
	res := s.Run()
	if res.Best.Topo == nil {
		return nil, fmt.Errorf("routerless: search found no fully connected design in %d episodes", res.Episodes)
	}
	return &Design{
		Topology:     res.Best.Topo,
		AvgHops:      res.Best.AvgHops,
		Loops:        res.Best.Loops,
		ValidDesigns: len(res.Valid),
	}, nil
}

// SimResult re-exports the simulator's measurement record.
type SimResult = sim.Result

// SimulateOptions configures one cycle-accurate run.
type SimulateOptions struct {
	Pattern traffic.Pattern
	// Rate is the offered load in flits/node/cycle.
	Rate float64
	// WarmupCycles/MeasureCycles default to 2000/10000.
	WarmupCycles, MeasureCycles int
	Seed                        int64
}

func (o SimulateOptions) runCfg() sim.RunConfig {
	cfg := sim.DefaultRunConfig()
	if o.WarmupCycles > 0 {
		cfg.WarmupCycles = o.WarmupCycles
	}
	if o.MeasureCycles > 0 {
		cfg.MeasureCycles = o.MeasureCycles
		cfg.DrainCycles = 2 * o.MeasureCycles
	}
	return cfg
}

// Simulate runs the routerless ring simulator on a topology.
func Simulate(t *Topology, opt SimulateOptions) SimResult {
	net := sim.NewRing(t, sim.DefaultRingConfig())
	src := traffic.NewInjector(t.Rows(), t.Cols(), opt.Pattern, opt.Rate, 128, opt.Seed+1)
	return sim.Run(net, src, opt.runCfg())
}

// SimulateMesh runs the VC mesh router simulator (routerDelay 0, 1 or 2 —
// the paper's Mesh-0/1/2).
func SimulateMesh(n, routerDelay int, opt SimulateOptions) SimResult {
	net := sim.NewMesh(n, n, sim.MeshN(routerDelay))
	src := traffic.NewInjector(n, n, opt.Pattern, opt.Rate, 256, opt.Seed+1)
	return sim.Run(net, src, opt.runCfg())
}

// SweepOptions configures a load-latency sweep.
type SweepOptions struct {
	Pattern traffic.Pattern
	Rates   []float64
	// Cycles per point (measure window); defaults to 10000.
	MeasureCycles int
	Seed          int64
}

// CurvePoint re-exports the load-latency sample type.
type CurvePoint = stats.CurvePoint

// SweepLatency sweeps injection rates on a routerless topology and returns
// the load-latency curve.
func SweepLatency(t *Topology, opt SweepOptions) []CurvePoint {
	var pts []sim.SweepPoint
	for _, r := range opt.Rates {
		res := Simulate(t, SimulateOptions{
			Pattern: opt.Pattern, Rate: r,
			MeasureCycles: opt.MeasureCycles, Seed: opt.Seed,
		})
		pts = append(pts, sim.SweepPoint{Rate: r, Result: res})
	}
	return sim.Curve(pts)
}

// SaturationThroughput estimates where a curve saturates (latency beyond
// 3× zero-load).
func SaturationThroughput(curve []CurvePoint) float64 {
	return stats.SaturationThroughput(curve, 3)
}

// PowerParams re-exports the calibrated 15nm power/area model.
type PowerParams = power.Params

// DefaultPowerParams returns constants anchored to the paper's published
// post-P&R numbers.
func DefaultPowerParams() PowerParams { return power.DefaultParams() }

// ActivityOf converts a simulation result into the power model's activity
// factors.
func ActivityOf(res SimResult) power.Activity {
	return power.ActivityOf(res)
}
