# Tier-1 verification gate (see ROADMAP.md): every PR must leave `make ci`
# green. `make race` additionally race-tests the concurrent packages, and
# `make trace-smoke` drives the traced CLIs end to end (the only run of the
# brokered nocexplore path); `make bench` is the quick no-regression smoke
# for the sim hot path.

GO ?= go

.PHONY: ci fmt vet vet-arm64 build test race loc bench bench-nn bench-sim bench-drl bench-infer bench-obs bench-train bench-search trace-smoke profile-smoke fuzz-smoke

ci: fmt vet vet-arm64 build test race trace-smoke

# Every Go file must be gofmt-clean; the step lists offenders and fails.
fmt:
	test -z "$$(gofmt -l .)"

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

# Non-test Go lines per internal/ package and their total, the unit the
# ROADMAP measures code size in (assembly and _test.go files excluded).
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' $$(cat $$(ls $$d*.go | grep -v '_test\.go$$') | wc -l) $${d%/}; \
	done
	@printf '%6d total\n' $$(cat $$(ls internal/*/*.go | grep -v '_test\.go$$') | wc -l)

bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

# Quick kernel-iteration loop for the DNN hot path (fused padded-plane
# convs, scratch arenas): the DNN micro-benchmarks with allocation counts,
# the conv layer against its naive reference, then the fused conv kernels
# per layer shape of the default 8×8 and 10×10 nets on both bodies (avx2:
# the register-tiled rows for Fwd/DX, the axpy4/dot4x4 primitives for DW;
# go: the portable loops), each row reporting GMAC/s, and the lowered GEMM
# oracle. Baseline numbers live in BENCH_PR2.json; the AVX2 rows in
# CHANGES.md.
bench-nn:
	$(GO) test -bench 'BenchmarkDNN' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkConvNaive' -benchmem -run '^$$' ./internal/nn/
	$(GO) test -bench 'BenchmarkConvFused|BenchmarkGemm' -benchmem -run '^$$' ./internal/tensor/

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
# broker, inference nn.Forward on the fused conv body):
# BenchmarkDNNForwardBatch per-sample at B=8/32 against the B=1 call
# BenchmarkDNNForward, and broker-routed episodes reporting mean batch
# occupancy. Baseline numbers live in BENCH_PR5.json (taken when the
# broker still had an evaluation cache); the f32-vs-f64 measurement that
# retired the float32 engine is in README.md.
bench-infer:
	$(GO) test -bench 'BenchmarkDNNForwardBatch|BenchmarkDNNForward$$' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the batched trajectory trainer (rl.A2C tiles
# driving training nn.Forward/Backward over the fused padded-plane conv
# kernels): the test-only one-sample-per-step oracle vs the batched
# A2CAccumulate at H ∈ {8,16,32} on the
# 8×8 and 10×10 nets, plus the end-to-end episode benchmark. The regression
# signals are allocs/op = 0 on the warmed trainer and the seq/batched
# ns/step ratio. Before/after numbers for PR 9 live in BENCH_PR9.json.
bench-train:
	$(GO) test -bench 'BenchmarkA2CAccumulate' -benchmem -run '^$$' ./internal/rl/
	$(GO) test -bench 'BenchmarkDRLEpisode$$' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the multi-threaded search stack: the fused
# applyAndFetch round-trip on the one-lock parameter server, and the
# end-to-end thread-scaling rows (Threads ∈ {1,2,4,8}). The regression
# signals are the round-trip ns/update and flat single-thread episode
# cost. The PR 10 lock-striped numbers live in BENCH_PR10.json.
bench-search:
	$(GO) test -bench 'BenchmarkParamServerRoundTrip' -benchmem -run '^$$' ./internal/drl/
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

# Decoder fuzz smoke: run FuzzTopologyJSON (the nocsim -topo decoder),
# FuzzUnmarshalModel (the nocexplore -load-model decoder), FuzzParsePattern
# and FuzzParsecProfile (the nocsim -pattern and -app names) and
# FuzzTraceCheck (the tracecheck trace decoder) for a short budget each. Input minimization is capped so a new coverage find does
# not spend the budget shrinking itself. For a longer run, call go test
# -fuzz directly.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTopologyJSON$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/topo/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalModel$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/nn/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/traffic/
	$(GO) test -run '^$$' -fuzz '^FuzzParsecProfile$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/traffic/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceCheck$$' -fuzztime 10s -fuzzminimizetime 100x ./cmd/tracecheck/
