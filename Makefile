# Pre-PR gate: build, vet, race-gated tests (count gates included) plus
# the paired timing gates, tkcheck over every Tcl script in the tree
# (docs/static-analysis.md), the frame-decoder, Tcl-eval and
# canvas-damage fuzz smoke, the chaos harness
# (docs/fault-injection.md), and the benchmark's own tests
# (perfbench/README.md). All legs must pass before a change ships.

GO ?= go

.PHONY: check build vet test tkcheck fuzz-smoke bench chaos perfbench-test

check: build vet test tkcheck fuzz-smoke chaos perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test runs every package under the race detector, count gates
# included: pipelined segments (internal/xserver/latency_test.go), wire
# v2 bytes and segments (internal/xclient/wire_test.go), span sampling
# cost (spans_test.go), reply-path allocations
# (internal/xserver/metrics_test.go) and the 1,000-session farm
# (internal/xserver/farm_test.go). Its second leg runs the three paired
# timing gates the race build leaves out (speed_test.go is
# //go:build !race): the tiled renderer must beat the seed flat
# renderer ≥ 3× on the fill/scroll/text storm, painters must keep ≥
# half their throughput under concurrent screenshot export, and 8
# concurrent clients must reach ≥ 3× the throughput of one. Each is the
# median of interleaved A/B pairs; EXPERIMENTS.md records their A/A
# spreads.
test:
	$(GO) test -race ./...
	$(GO) test -run '^TestPaired' -count=1 .

tkcheck:
	$(GO) run ./cmd/tkcheck ./examples/... ./cmd/... ./internal/... ./docs
	$(GO) run ./cmd/tkcheck -tests ./cmd/wish

# fuzz-smoke gives the wire-frame decoders (v1 outer framing plus the
# v2 segment codec), the Tcl interpreter and the canvas's damage-region
# redisplay a bounded fuzzing pass on every check run; longer campaigns
# just raise -fuzztime. Corpus seeds cover v1 and v2 frames in both
# directions (internal/xproto/fuzz_test.go); FuzzEval runs arbitrary
# scripts through Interp.Eval, expr included, and checks that nesting
# past the interpreter's depth limit is a Tcl error, not a crash
# (internal/tcl/fuzz_test.go); FuzzCanvasDamage runs arbitrary item
# command sequences and checks every partial redraw against a full one
# (internal/widget/canvas_damage_test.go).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequestFrame$$' -fuzztime 5s ./internal/xproto
	$(GO) test -run '^$$' -fuzz '^FuzzReadServerFrame$$' -fuzztime 5s ./internal/xproto
	$(GO) test -run '^$$' -fuzz '^FuzzEval$$' -fuzztime 5s ./internal/tcl
	$(GO) test -run '^$$' -fuzz '^FuzzCanvasDamage$$' -fuzztime 5s ./internal/widget

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# chaos runs the fault-injection harness (chaos_test.go): a real widget
# workload under a bounded seeded scenario matrix — including corrupted
# and mid-stream-killed wire-protocol-v2 connections — race-gated,
# asserting zero hangs, zero panics, and every injected fault recovered
# from or surfaced as a clean error. See docs/fault-injection.md.
chaos:
	$(GO) test -race -run TestChaos -count=1 -timeout 300s -v .

# perfbench-test runs the benchmark module's cross-checks
# (perfbench/perfbench_test.go): client requests equal server requests,
# the screenshot hash repeats, and a run whose output check fails
# publishes no metrics. perfbench is a module of its own, so the root
# `go test ./...` does not reach it.
perfbench-test:
	cd perfbench && $(GO) test ./...
