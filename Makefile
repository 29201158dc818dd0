# Local dev and CI run the identical commands: .github/workflows/ci.yml
# invokes the same go invocations these targets wrap.

GO ?= go

.PHONY: all build test test-cores benchmark-module race race-cores bench examples fmt vet fuzz parallel-bench scale-bench hier-bench adapt-bench families-bench chaos-bench obs-bench obs-smoke trace-smoke loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 at the core counts a small host has: start-order and
# scheduling assumptions fail here, not on a 2-core verifier.
test-cores:
	GOMAXPROCS=1 $(GO) test ./...
	GOMAXPROCS=2 $(GO) test ./...

# The repository benchmark is its own module (root ./... skips it);
# this keeps a change to a function it calls from silently breaking it.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The packages whose buffer lifetimes the round engine owns (landings,
# reused sums, partial views), raced on one core where goroutine
# interleavings differ most from a developer's machine.
race-cores:
	GOMAXPROCS=1 $(GO) test -race -count=3 ./internal/transport ./internal/orchestrator ./internal/hier

# One iteration of every benchmark — the CI smoke; drop -benchtime for
# real measurements. -run=^$$ keeps the unit tests out of this target.
bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# Run the examples that drive the simulator end to end (CI smoke):
# each finishes in seconds and must exit 0.
examples:
	$(GO) run ./examples/federated
	$(GO) run ./examples/scale

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Non-test Go lines per package and in total (tests, testdata/ and
# benchmark/ excluded) — what ROADMAP item 2 is measured with.
loc:
	@bash scripts/loc.sh

# Short fuzz smoke over the ten decoder fuzz targets (matches CI).
# FuzzDecodePartial's seeds are the 2.4 KB golden frames and
# FuzzReadDownlink's are whole downlinks of a few KB; without the
# minimize cap the engine spends the whole smoke minimizing its first find.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecompress -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzDecoderStream -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzFrameIntegrity -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalStateDictInto -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSZ2DecompressInto -fuzztime=10s ./internal/sz2
	$(GO) test -run=^$$ -fuzz=FuzzHuffmanDecode -fuzztime=10s ./internal/huffman
	$(GO) test -run=^$$ -fuzz=FuzzLZHDecompress -fuzztime=10s ./internal/lossless
	$(GO) test -run=^$$ -fuzz=FuzzFamilyDecode -fuzztime=10s ./internal/family
	$(GO) test -run=^$$ -fuzz=FuzzDecodePartial -fuzztime=10s -fuzzminimizetime=1s ./internal/hier
	$(GO) test -run=^$$ -fuzz=FuzzReadDownlink -fuzztime=10s -fuzzminimizetime=1s ./internal/transport

# Regenerate the committed serial-vs-parallel datapoint. Run on a
# multi-core machine at paper scale: make parallel-bench SCALE=1
SCALE ?= 8
parallel-bench:
	$(GO) run ./cmd/fedszbench -exp parallel -scale $(SCALE) -format json -o BENCH_parallel.json

# Regenerate the committed throughput/allocation datapoint.
throughput-bench:
	$(GO) run ./cmd/fedszbench -exp throughput -scale $(SCALE) -format json -o BENCH_throughput.json

# Regenerate the committed whole-buffer vs pipelined-transfer datapoint.
stream-bench:
	$(GO) run ./cmd/fedszbench -exp stream -scale $(SCALE) -format json -o BENCH_stream.json

# Regenerate the committed 1000-client orchestration datapoint (sync vs
# async, sequential vs streaming sharded aggregation) — including the
# hierarchical per-tier rows (100k virtual clients folding through
# regional edge aggregators into partial-sum frames).
scale-bench:
	$(GO) run ./cmd/fedszbench -exp scale -scale $(SCALE) -format json -o BENCH_scale.json

# The hierarchical rows live in the scale experiment; hier-bench
# regenerates BENCH_scale.json with them (alias kept so the tier work
# has its own entry point).
hier-bench: scale-bench

# Regenerate the committed adaptive-vs-static selection datapoint
# (the control plane's acceptance criterion: adaptive within 5% of the
# best static configuration's bytes-on-wire on PaperMix). The race
# gate covers internal/adapt through ./... like every other package.
adapt-bench:
	$(GO) run ./cmd/fedszbench -exp adapt -scale $(SCALE) -format json -o BENCH_adapt.json

# Regenerate the committed cross-family selection datapoint (the
# family API's acceptance criterion: adaptive at or below the best
# static family's bytes-on-wire, with ≥3 distinct families chosen in
# one frame on the mixed-statistics workload).
families-bench:
	$(GO) run ./cmd/fedszbench -exp families -scale $(SCALE) -format json -o BENCH_families.json

# Regenerate the committed fault-injection datapoint (the robustness
# acceptance criterion: every fault regime — frame corruption,
# connection kills, coordinator crash/restore — completes its round
# budget with zero corrupt frames folded into the global model).
chaos-bench:
	$(GO) run ./cmd/fedszbench -exp chaos -scale $(SCALE) -format json -o BENCH_chaos.json

# Regenerate the committed telemetry-overhead datapoint (the
# observability acceptance criterion: instrumented sz2 streaming
# decode within 3% of obs.Disabled throughput, 0 extra allocs/op).
obs-bench:
	$(GO) run ./cmd/fedszbench -exp obs -scale $(SCALE) -format json -o BENCH_obs.json

# Live observability smoke: real fedszserver + 3 clients over TCP
# loopback with -metrics-addr on, one client frozen to produce a drop
# series, /metrics + /rounds + /debug/vars scraped and asserted.
obs-smoke:
	bash scripts/obs_smoke.sh

# Live tracing smoke: a 2-edge / 4-client federation over TCP loopback,
# /readyz-gated, asserting /rounds/tree grafts both regions, computes a
# critical path fitting the round wall time within 10%, and that
# fedsztop renders a headless snapshot from the same endpoint.
trace-smoke:
	bash scripts/trace_smoke.sh

# Profile an experiment, e.g.: make profile EXP=throughput
# then: go tool pprof cpu.pprof
EXP ?= throughput
profile:
	$(GO) run ./cmd/fedszbench -exp $(EXP) -scale $(SCALE) -cpuprofile cpu.pprof -memprofile mem.pprof -o /dev/null
