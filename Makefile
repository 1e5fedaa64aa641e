# Tier-1 verification gate (see ROADMAP.md): every PR must leave `make ci`
# green. `make race` additionally race-tests the concurrent packages; `make
# bench` is the quick no-regression smoke for the sim hot path.

GO ?= go

.PHONY: ci vet vet-arm64 build test race bench bench-nn bench-sim bench-drl bench-infer bench-obs bench-train bench-search trace-smoke profile-smoke fuzz-smoke

ci: vet vet-arm64 build test race

vet:
	$(GO) vet ./...

# Cross-vet the portable build: internal/tensor's AVX2 kernels are amd64
# assembly, and every other architecture must still compile its Go
# fallbacks. Runs offline; go vet's asmdecl check covers the asm frames.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/drl/... ./internal/sim/... ./internal/obs/... ./internal/mcts/... ./internal/exp/... ./internal/rl/... ./internal/infer/...

bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

# Quick kernel-iteration loop for the DNN hot path (im2col/GEMM convs,
# scratch arenas): just the DNN/GEMM micro-benchmarks, with allocation
# counts, then the fused conv kernels per layer shape of the default 8×8
# net on both SIMD bodies (avx2 and the portable go rows). Before/after
# numbers for PR 2 live in BENCH_PR2.json; the AVX2 rows in CHANGES.md.
bench-nn:
	$(GO) test -bench 'BenchmarkDNN|BenchmarkGemm|BenchmarkIm2col' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkConvFused' -benchmem -run '^$$' ./internal/tensor/

# Quick iteration loop for the simulator hot path (zero-alloc Step/Run:
# flit pools, head-index queues, routing caches, active-set sparse
# stepping). Allocation counts are the regression signal — internal/sim's
# AllocsPerRun tests pin them at zero per steady-state cycle — and the
# SimRun matrix covers low rates (-r0.01/-r0.02, where sparse stepping
# pays) plus near saturation (bare ring8x8/mesh8x8, where it must not
# regress); internal/sim's BenchmarkSimRunDense runs the same matrix on
# the test-only dense reference walk, the "before" column.
# PR 3 numbers live in BENCH_PR3.json, the sparse-vs-dense rows in
# BENCH_PR8.json.
bench-sim:
	$(GO) test -bench 'BenchmarkRingStep|BenchmarkMeshStep|BenchmarkSimRun' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkSimRunDense' -benchmem -run '^$$' ./internal/sim/

# Quick iteration loop for the DRL episode hot path (incremental greedy
# score cache, episode arenas, cached fingerprints). Allocation counts are
# the regression signal — internal/rl's and internal/drl's AllocsPerRun
# tests pin the greedy step, state encoding, and fingerprint at zero.
# Before/after numbers for PR 4 live in BENCH_PR4.json.
bench-drl:
	$(GO) test -bench 'BenchmarkGreedyComplete|BenchmarkFingerprint' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the batched-inference service (internal/infer
# broker, nn.ForwardBatch + the f32 InferNet, fingerprint-keyed evaluation
# cache). Runs both precisions side by side: BenchmarkDNNForwardBatch (f64)
# vs BenchmarkDNNForwardBatchF32 per-sample at B=1/8/32, and broker-routed
# episodes under f64 vs f32. The PR 7 gate is f32 B=8/32 ns/sample strictly
# below single-sample f64 Forward on the 8×8 and 10×10 nets. Before/after
# numbers: BENCH_PR5.json (f64 baseline), BENCH_PR7.json (f64 vs f32).
bench-infer:
	$(GO) test -bench 'BenchmarkDNNForwardBatch|BenchmarkDNNForward$$' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the batched trajectory trainer (rl.A2C tiles
# driving nn.ForwardBatchTrain/BackwardBatch over the fused padded-plane
# conv kernels): the test-only sequential oracle vs the batched
# A2CAccumulate at H ∈ {8,16,32} on the
# 8×8 and 10×10 nets, plus the end-to-end episode benchmark. The regression
# signals are allocs/op = 0 on the warmed trainer and the seq/batched
# ns/step ratio. Before/after numbers for PR 9 live in BENCH_PR9.json.
bench-train:
	$(GO) test -bench 'BenchmarkA2CAccumulate' -benchmem -run '^$$' ./internal/rl/
	$(GO) test -bench 'BenchmarkDRLEpisode$$' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the multi-threaded search stack (PR 10): the
# lock-striped MCTS tree and chunked parameter server under concurrent
# learner traffic, the fused applyAndFetch round-trip at whole-vector and
# chunked lock shapes, and the end-to-end thread-scaling rows (Threads ∈
# {1,2,4,8}). The regression signals are the round-trip ns/update,
# contended_frac on the striped structures vs their whole-lock before
# columns, and flat single-thread episode cost. On a 1-CPU host the
# thread-scaling wall-clock is honestly flat — contended_frac carries the
# story (ROADMAP policy, as PR 3/5). Numbers live in BENCH_PR10.json.
bench-search:
	$(GO) test -bench 'BenchmarkTreeContention' -benchmem -run '^$$' ./internal/mcts/
	$(GO) test -bench 'BenchmarkParamServer' -benchmem -run '^$$' ./internal/drl/
	$(GO) test -bench 'BenchmarkDRLSearchThreads' -benchmem -benchtime 5x -run '^$$' ./internal/drl/

# Tracing-overhead gate (PR 6): traced vs untraced episode and sim-run
# pairs, plus the span/histogram micro-benchmarks. The disabled path must
# stay allocation-free (internal/{sim,rl,drl} alloc tests pin it) and the
# enabled path within a few percent. Before/after numbers live in
# BENCH_PR6.json.
bench-obs:
	$(GO) test -bench 'BenchmarkSimRun$$|BenchmarkSimRunTraced' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode$$|BenchmarkDRLEpisodeTraced' -benchmem -run '^$$' ./internal/drl/
	$(GO) test -bench 'BenchmarkTraceSpan|BenchmarkHistogram' -benchmem -run '^$$' ./internal/obs/

# End-to-end tracing smoke: run a tiny traced search and a tiny traced
# sweep, then validate the Chrome trace JSON (well-formed, strictly nested
# per track, all expected span kinds present) with cmd/tracecheck.
trace-smoke:
	$(GO) run ./cmd/nocexplore -n 4 -episodes 6 -threads 2 -infer-batch 4 -progress 0 \
		-trace /tmp/routerless-trace-explore.json -manifest /tmp/routerless-manifest.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck -require \
		drl.run,drl.episode,mcts.select,mcts.expand,mcts.backup,infer.submit,infer.queue_wait,infer.batch_assemble,infer.forward_batch \
		/tmp/routerless-trace-explore.json
	$(GO) run ./cmd/nocsim -mesh 4 -rates 0.01,0.02 -warmup 200 -measure 500 \
		-trace /tmp/routerless-trace-sim.json -manifest /tmp/routerless-manifest.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck -require sim.run,sim.warmup,sim.measure,sim.drain,exp.point \
		/tmp/routerless-trace-sim.json

# End-to-end contention-profiling smoke (PR 10): run a threaded search with
# -mutexprofile/-blockprofile and assert both profiles are non-empty and
# parseable (pprof -top symbolizes runtime profiles without the binary).
profile-smoke:
	$(GO) run ./cmd/nocexplore -n 4 -episodes 8 -threads 4 -progress 0 \
		-mutexprofile /tmp/routerless-mutex.pprof -blockprofile /tmp/routerless-block.pprof > /dev/null
	test -s /tmp/routerless-mutex.pprof
	test -s /tmp/routerless-block.pprof
	$(GO) tool pprof -top /tmp/routerless-mutex.pprof > /dev/null
	$(GO) tool pprof -top /tmp/routerless-block.pprof > /dev/null

# Decoder fuzz smoke: run FuzzTopologyJSON (the nocsim -topo decoder) and
# FuzzUnmarshalModel (the nocexplore -load-model decoder) for a short
# budget each. Input minimization is capped so a new coverage find does
# not spend the budget shrinking itself. For a longer run, call go test
# -fuzz directly.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTopologyJSON$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/topo/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalModel$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/nn/
