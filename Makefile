GO ?= go

.PHONY: build test test-matrix race vet loc bench-build bench bench-optimizer-smoke bench-tensor bench-overlap bench-serve bench-load \
	bench-transport bench-fleet bench-e2e bench-e2e-smoke launch-smoke fleet-smoke ci \
	sim-smoke sim-multi-seed sim-nondeterminism sim-import-export sim-transport

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 at every core count CI runs it at: the allocation guards, the
# kernel pool and the collectives behave differently once work fans out.
# -count=1: the test cache does not key on GOMAXPROCS.
test-matrix:
	for p in 1 2 4; do echo "== GOMAXPROCS=$$p"; GOMAXPROCS=$$p $(GO) test -count=1 ./... || exit 1; done

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Lines of Go that are code: no tests, comments or blanks, and not the
# benchmark (which measures the program and is not part of it).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | grep -Ev '^[[:space:]]*(//|$$)' | wc -l

# The benchmark is the driver's gate and calls internal/ APIs directly;
# name it explicitly so breaking one of them fails here, not there.
bench-build:
	$(GO) vet ./benchmark && $(GO) build -o /dev/null ./benchmark

# Kernel and layer-step micro-benchmarks (the numbers recorded in
# BENCH_tensor.json).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/tensor ./internal/nn

# One iteration of the parameter-update probe: it cannot time anything,
# it keeps BenchmarkOptimizerStep compiling and running.
bench-optimizer-smoke:
	$(GO) test -bench BenchmarkOptimizerStep -benchtime 1x -run '^$$' ./internal/nn

bench-tensor:
	$(GO) test -bench 'BenchmarkMatMul|BenchmarkTMatMul|BenchmarkDenseStep' -benchmem -run '^$$' ./internal/tensor ./internal/nn

# Sync-vs-overlap per-step wall time under an injected collective
# stall; regenerates BENCH_overlap.json.
bench-overlap:
	BENCH_OVERLAP_OUT=$(CURDIR)/BENCH_overlap.json $(GO) test -run TestWriteOverlapBench -v ./internal/horovod

# Batched vs unbatched inference serving throughput/latency;
# regenerates BENCH_serve.json.
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_serve.json $(GO) test -count=1 -run TestWriteServeBench -v ./internal/serve

# Phase-1 load at 4 ranks: parallel reader vs cold sharded vs warm
# binary cache; regenerates BENCH_load.json.
bench-load:
	BENCH_LOAD_OUT=$(CURDIR)/BENCH_load.json $(GO) test -count=1 -run TestWriteLoadBench -v ./internal/dataload

# Ring-allreduce latency/bandwidth across the rank-link transports
# (in-process channels vs Unix sockets vs loopback TCP, 2 procs x 2
# ranks) at three payload sizes; regenerates BENCH_transport.json.
bench-transport:
	BENCH_TRANSPORT_OUT=$(CURDIR)/BENCH_transport.json $(GO) test -count=1 -run TestWriteTransportBench -v ./internal/launch

# Multi-process smoke: `candle launch` spawns 2 `candle run` worker
# processes x 2 ranks over unix sockets, pinned seed, bit-identical to
# the 4-rank in-process run.
launch-smoke:
	$(GO) test -count=1 -run TestLaunchSmokeBitIdentical -v ./cmd/candle

# Open-loop fleet load test at 1/2/4 replicas plus the
# kill-a-replica-under-load run; regenerates BENCH_fleet.json.
bench-fleet:
	BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test -count=1 -timeout 600s -run TestWriteFleetBench -v ./internal/fleet

# End-to-end time/energy-to-accuracy sweep: real training for every
# pilot × {engine, ranks, overlap, dtype} grid point, phase split from
# the trace timeline, modeled joules; regenerates BENCH_e2e.json —
# the artifact candle advise -from-bench recommends from.
bench-e2e:
	BENCH_E2E_OUT=$(CURDIR)/BENCH_e2e.json $(GO) test -count=1 -timeout 600s -run TestWriteE2EBench -v ./internal/e2ebench

# CI-fast subset: one pilot, two configs, schema-validated, thrown away.
bench-e2e-smoke:
	BENCH_E2E_SMOKE=1 BENCH_E2E_OUT=/tmp/BENCH_e2e.json $(GO) test -count=1 -run TestWriteE2EBench -v ./internal/e2ebench

# Replicated-serving smoke: `candle fleet` spawns 2 real `candle serve`
# replica processes, one is SIGKILLed under live load (zero failed
# admitted requests), it is respawned into its slot, SIGTERM drains the
# fleet.
fleet-smoke:
	$(GO) test -count=1 -run TestFleetSmoke -v ./cmd/candle

# Seeded scenario simulation (candle sim): each seed draws a full
# run configuration — pilot, ranks, engine, precision, overlap, fault
# plan, checkpoint cadence — and checks the machine-verified invariants
# (determinism, checkpoint import/export, fault outcomes, overlap and
# dtype equivalences) under a deadlock watchdog. A failing seed prints
# its repro: candle sim -seed N -verbose.
SIM_SEED ?= 42
SEEDS ?= 25
SIM_START_SEED ?= 1

# One pinned seed, full invariant suite, under the race detector:
# CI-fast and deterministic.
sim-smoke:
	$(GO) run -race ./cmd/candle sim -seed $(SIM_SEED)

# Sweep $(SEEDS) consecutive seeds from $(SIM_START_SEED), fail-fast
# with the failing seed echoed.
sim-multi-seed:
	$(GO) run ./cmd/candle sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED)

# Focused sweeps over one invariant family each.
sim-nondeterminism:
	$(GO) run ./cmd/candle sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED) -check determinism

sim-import-export:
	$(GO) run ./cmd/candle sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED) -check import-export

sim-transport:
	$(GO) run ./cmd/candle sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED) -check transport

ci: build test-matrix race vet bench-build bench-optimizer-smoke sim-smoke launch-smoke fleet-smoke bench-e2e-smoke
