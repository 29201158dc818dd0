# Local dev and CI run the identical commands: .github/workflows/ci.yml
# invokes the same go invocations these targets wrap.

GO ?= go

.PHONY: all build test test-cores benchmark-module race race-cores bench examples fmt vet fuzz golden obs-smoke trace-smoke profile loc

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
# reused sums, partial views), core's wire I/O (which hands tensor
# storage to writers directly) and the codec scratch core's per-tensor
# workers share (encoder pool, bulk decoder, histogram), raced on one
# core where goroutine interleavings differ most from a developer's
# machine. The aggregator's commit fans out only with more than one
# core (at 1 it runs inline), so orchestrator is raced at 2 as well.
race-cores:
	GOMAXPROCS=1 $(GO) test -race -count=3 ./internal/transport ./internal/orchestrator ./internal/hier ./internal/core ./internal/sz2 ./internal/sz3 ./internal/huffman ./internal/lossless
	GOMAXPROCS=2 $(GO) test -race -count=3 ./internal/orchestrator

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

# go vet (on amd64 its asmdecl pass checks sz2's assembly against the
# Go declarations), go vet for arm64, which builds sz2's scalar
# fallback instead, the FMA gate (no fused multiply-add in the arm64
# build of the codecs and the aggregators, see scripts/fma_gate.sh),
# then the deprecation gate: no non-test Go file may carry a
# "Deprecated:" marker. A superseded surface is deleted, not kept as a
# shim beside its replacement.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	bash scripts/fma_gate.sh
	@if git grep --untracked -n 'Deprecated:' -- '*.go' ':!*_test.go'; then \
		echo 'deprecated surface in non-test Go code: delete it' >&2; exit 1; fi

# Non-test Go lines per package and in total (tests, testdata/ and
# benchmark/ excluded) — what ROADMAP item 2 is measured with.
loc:
	@bash scripts/loc.sh

# Short fuzz smoke over the ten decoder fuzz targets and sz2's encoder
# equivalence target (matches CI). FuzzDecodePartial's seeds are the
# 2.4 KB golden frames, FuzzReadDownlink's are whole downlinks of a few
# KB and FuzzSZ2Compress runs two encoders and a decoder per input;
# without the minimize cap the engine spends the whole smoke minimizing
# its first find.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecompress -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzDecoderStream -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzFrameIntegrity -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalStateDictInto -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSZ2DecompressInto -fuzztime=10s ./internal/sz2
	$(GO) test -run=^$$ -fuzz=FuzzSZ2Compress -fuzztime=10s -fuzzminimizetime=1s ./internal/sz2
	$(GO) test -run=^$$ -fuzz=FuzzHuffmanDecode -fuzztime=10s ./internal/huffman
	$(GO) test -run=^$$ -fuzz=FuzzLZHDecompress -fuzztime=10s ./internal/lossless
	$(GO) test -run=^$$ -fuzz=FuzzFamilyDecode -fuzztime=10s ./internal/family
	$(GO) test -run=^$$ -fuzz=FuzzDecodePartial -fuzztime=10s -fuzzminimizetime=1s ./internal/hier
	$(GO) test -run=^$$ -fuzz=FuzzReadDownlink -fuzztime=10s -fuzzminimizetime=1s ./internal/transport

# Rewrite every golden file from the current encoders, then rerun the
# golden tests against what was written. Only for a deliberate wire
# change: review the diff of testdata/ before committing it.
GOLDEN_PKGS = ./internal/sz2 ./internal/sz3 ./internal/huffman ./internal/lossless ./internal/hier ./internal/core
golden:
	$(GO) test -count=1 $(GOLDEN_PKGS) -run 'Golden' -update
	$(GO) test -count=1 $(GOLDEN_PKGS) -run 'Golden'

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

# Profile a paper experiment, e.g.: make profile EXP=fig7
# then: go tool pprof cpu.pprof
SCALE ?= 8
EXP ?= table5
profile:
	$(GO) run ./cmd/fedszbench -exp $(EXP) -scale $(SCALE) -cpuprofile cpu.pprof -memprofile mem.pprof -o /dev/null
