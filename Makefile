# Tier-1 verification gate (see ROADMAP.md): every PR must leave `make ci`
# green. `make race` additionally race-tests the concurrent packages, and
# `make trace-smoke` drives the traced CLIs end to end (the only run of the
# brokered nocexplore path); `make bench` is the quick no-regression smoke
# for the sim hot path.

GO ?= go

.PHONY: ci fmt vet vet-arm64 build test bench-selftest race loc bench bench-nn bench-sim bench-drl bench-infer bench-obs bench-train bench-search bench-explore trace-smoke profile-smoke fuzz-smoke

ci: fmt vet vet-arm64 build test bench-selftest race trace-smoke

# Every Go file must be gofmt-clean; the step lists offenders and fails.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Cross-vet the portable build: internal/tensor's AVX2 and AVX-512 kernels
# and internal/rl's AVX-512 Imprv kernel are amd64 assembly, and every
# other architecture must still compile its Go fallbacks. Runs offline; go vet's asmdecl check covers the asm frames.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark's own vet and self-test (same-seed digests, output
# checks). bench/ is a module of its own, so `go test ./...` never
# reaches it.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test .

race:
	$(GO) test -race ./internal/nn/... ./internal/drl/... ./internal/sim/... ./internal/obs/... ./internal/mcts/... ./internal/exp/... ./internal/rl/... ./internal/infer/... ./internal/search/...

# Non-test Go lines per internal/ package and their total, the unit the
# ROADMAP measures code size in (assembly and _test.go files excluded),
# then the same count over the commands under cmd/.
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' $$(cat $$(ls $$d*.go | grep -v '_test\.go$$') | wc -l) $${d%/}; \
	done
	@printf '%6d total\n' $$(cat $$(ls internal/*/*.go | grep -v '_test\.go$$') | wc -l)
	@printf '%6d cmd total\n' $$(cat $$(ls cmd/*/*.go | grep -v '_test\.go$$') | wc -l)

bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

# Quick kernel-iteration loop for the DNN hot path (fused padded-plane
# convs, scratch arenas): the DNN micro-benchmarks with allocation counts,
# the conv layer against its naive reference, one training forward plus
# backward of every ReLU, BatchNorm, fused BatchNorm→ReLU, MaxPool and conv
# layer shape of the 8×8 net and the first stage of the 10×10 net (4c_100)
# at the B=16 training tile (ns per output element; the elementwise layers
# once per body, go and avx2, which AVX-512 hosts also run), then the
# fused conv kernels per layer shape of the default 8×8 and 10×10 nets on
# every body (avx512: the position-major plane kernel for Fwd/DX and the
# eight-row dwTileAVX512 tile for DW; avx2: the register-tiled rows for
# Fwd/DX, the dwTileAVX2 register tile for DW; go: the portable loops;
# a body the host lacks is skipped), each row reporting GMAC/s, and the
# lowered GEMM oracle. Baseline numbers live in BENCH_PR2.json; the
# AVX2, AVX-512 and layer rows in CHANGES.md.
bench-nn:
	$(GO) test -bench 'BenchmarkDNN' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkConvNaive|BenchmarkLayerTrain' -benchmem -run '^$$' ./internal/nn/
	$(GO) test -bench 'BenchmarkConvFused|BenchmarkGemm' -benchmem -run '^$$' ./internal/tensor/

# Quick iteration loop for the simulator hot path (zero-alloc Step/Run:
# flit pools, head-index queues, routing caches, active-set sparse
# stepping). Allocation counts are the regression signal — internal/sim's
# AllocsPerRun tests pin them at zero per steady-state cycle — and the
# SimRun matrix covers low rates (-r0.01/-r0.02, where sparse stepping
# pays) plus near saturation (bare ring8x8/mesh8x8, where it must not
# regress); internal/sim's BenchmarkSimRunDense runs the same matrix on
# the test-only dense reference walk, the "before" column.
# BenchmarkRingBuild (REC 8x8, 10x10, 16x16) and BenchmarkMeshBuild (10x10
# Mesh-2) time the network construction every sweep point pays: the ring's
# one-walk-per-loop routing table and both networks' slab-allocated state.
# PR 3 numbers live in BENCH_PR3.json, the sparse-vs-dense rows in
# BENCH_PR8.json.
bench-sim:
	$(GO) test -bench 'BenchmarkRingStep|BenchmarkMeshStep|BenchmarkSimRun|BenchmarkRingBuild|BenchmarkMeshBuild' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkSimRunDense' -benchmem -run '^$$' ./internal/sim/

# Quick iteration loop for the DRL episode hot path (incremental greedy
# score cache, episode arenas, cached fingerprints): a whole Algorithm 1
# completion (GreedyComplete), one steady-state greedy argmax over the
# cached table (GreedyScan), and Algorithm 1's part of a search episode
# (GreedyEpisode: Reset from the empty-grid snapshot, n/2 random loops,
# GreedyImprove) at 8x8 cap 14 and 10x10 cap 18 on each Imprv body, go and
# avx512 (a body the host lacks is skipped). Allocation counts are
# the regression signal — internal/rl's and internal/drl's AllocsPerRun
# tests pin the greedy step, state encoding, and fingerprint at zero.
# Before/after numbers for PR 4 live in BENCH_PR4.json.
bench-drl:
	$(GO) test -bench 'BenchmarkGreedyComplete|BenchmarkGreedyScan|BenchmarkFingerprint' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkGreedyEpisode' -benchmem -run '^$$' ./internal/rl/
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
# A2CAccumulate at H ∈ {4,8,16,32} on the 8×8 and 10×10 nets the search
# trains (drl.DefaultConfig's), each at -cpu 1 (every conv gradient in
# line) and -cpu 2 (conv weight gradients on nn's lane, on the second
# CPU), plus the end-to-end episode benchmark. The regression signals are
# allocs/op = 0 on the warmed trainer, the seq/batched ns/step ratio and
# the -cpu 1/-cpu 2 ratio. Numbers for the older two-channel net live in
# BENCH_PR9.json.
bench-train:
	$(GO) test -bench 'BenchmarkA2CAccumulate' -benchmem -cpu 1,2 -run '^$$' ./internal/rl/
	$(GO) test -bench 'BenchmarkDRLEpisode$$' -benchmem -run '^$$' ./internal/drl/

# Quick iteration loop for the multi-threaded search stack: the fused
# applyAndFetch round-trip on the one-lock parameter server, and the
# end-to-end thread-scaling rows (Threads ∈ {1,2,4,8}). The regression
# signals are the round-trip ns/update and flat single-thread episode
# cost. The PR 10 lock-striped numbers live in BENCH_PR10.json.
bench-search:
	$(GO) test -bench 'BenchmarkParamServerRoundTrip' -benchmem -run '^$$' ./internal/drl/
	$(GO) test -bench 'BenchmarkDRLSearchThreads' -benchmem -benchtime 5x -run '^$$' ./internal/drl/

# Quick iteration loop for the §6.8 link-placement searches (noc3d and
# chiplet as two rule sets over the shared search.Graph and
# search.Placement): one 50-episode Explore of each at the explore-generic
# workload's ε and step caps, with allocation counts, then the two tree
# phases both searches share: Expand of the 8×8 root leaf (1,568 actions)
# and Select at a visited node whose legality test rejects some edges
# (first-legal: one argmax pass; prune-4: four rejected edges pruned per
# op). The regression signals are ns/op, allocs/op and an unchanged hops
# metric; the benchmark's explore-generic workload is the end-to-end
# check.
bench-explore:
	$(GO) test -bench 'BenchmarkExplore' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkTreeExpand|BenchmarkTreeSelect' -benchmem -run '^$$' ./internal/mcts/

# Tracing-overhead gate (PR 6): traced vs untraced episode and sim-run
# pairs, plus the span/histogram micro-benchmarks. The disabled path must
# stay allocation-free (internal/{sim,rl,drl} alloc tests pin it) and the
# enabled path within a few percent. Before/after numbers live in
# BENCH_PR6.json.
bench-obs:
	$(GO) test -bench 'BenchmarkSimRun$$|BenchmarkSimRunTraced' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDRLEpisode$$|BenchmarkDRLEpisodeTraced' -benchmem -run '^$$' ./internal/drl/
	$(GO) test -bench 'BenchmarkTraceSpan|BenchmarkHistogram' -benchmem -run '^$$' ./internal/obs/

# End-to-end tracing smoke: run a tiny traced search, a tiny traced sweep
# and a traced benchtab experiment, then validate the Chrome trace JSON
# (well-formed, strictly nested per track, all expected span kinds
# present) with cmd/tracecheck. Each run writes into its own temporary
# directory, removed on exit.
trace-smoke:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/nocexplore -n 4 -episodes 6 -threads 2 -infer-batch 4 -progress 0 \
		-trace $$d/trace-explore.json -manifest $$d/manifest.jsonl > /dev/null; \
	grep -q '"best_hops_curve":\[\[' $$d/manifest.jsonl || \
		{ echo "trace-smoke: nocexplore manifest lacks best_hops_curve" >&2; exit 1; }; \
	$(GO) run ./cmd/tracecheck -require \
		drl.run,drl.episode,rl.greedy,mcts.select,mcts.expand,mcts.backup,infer.submit,infer.queue_wait,infer.batch_assemble,infer.forward_batch \
		$$d/trace-explore.json; \
	$(GO) run ./cmd/nocsim -mesh 4 -rates 0.01,0.02 -warmup 200 -measure 500 \
		-trace $$d/trace-sim.json -manifest $$d/manifest.jsonl > /dev/null; \
	$(GO) run ./cmd/tracecheck -require sim.run,sim.warmup,sim.measure,sim.drain,exp.point \
		$$d/trace-sim.json; \
	$(GO) run ./cmd/benchtab -exp T5 \
		-trace $$d/trace-benchtab.json -manifest $$d/manifest.jsonl > /dev/null; \
	$(GO) run ./cmd/tracecheck -require exp.point $$d/trace-benchtab.json

# End-to-end profiling smoke: run a threaded search with
# -mutexprofile/-blockprofile and a sweep with -cpuprofile, and assert
# every profile is non-empty and parseable (pprof -top symbolizes runtime
# profiles without the binary). The profiles go to a temporary directory,
# removed on exit.
profile-smoke:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/nocexplore -n 4 -episodes 8 -threads 4 -progress 0 \
		-mutexprofile $$d/mutex.pprof -blockprofile $$d/block.pprof > /dev/null; \
	test -s $$d/mutex.pprof; \
	test -s $$d/block.pprof; \
	$(GO) tool pprof -top $$d/mutex.pprof > /dev/null; \
	$(GO) tool pprof -top $$d/block.pprof > /dev/null; \
	$(GO) run ./cmd/nocsim -mesh 4 -rates 0.01,0.05 -warmup 200 -measure 2000 \
		-cpuprofile $$d/cpu.pprof > /dev/null; \
	test -s $$d/cpu.pprof; \
	$(GO) tool pprof -top $$d/cpu.pprof > /dev/null

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
