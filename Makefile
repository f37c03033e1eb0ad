GO ?= go

.PHONY: build test test-matrix race vet loc reach layers bench-build bench bench-optimizer-smoke bench-smoke \
	fleet-race launch-smoke fleet-smoke ci \
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

# The router's health, reload and proxy loops race each other by
# design; ten passes under the race detector give their interleavings
# room to show.
fleet-race:
	$(GO) test -race -count=10 ./internal/fleet

vet:
	$(GO) vet ./...

# Lines of Go that are code: no tests, comments or blanks, and not the
# benchmark (which measures the program and is not part of it).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | grep -Ev '^[[:space:]]*(//|$$)' | wc -l

# Every exported package-level function of these packages has a caller
# outside the tests: build every main package without inlining (so a
# small function keeps its symbol), list their symbols, and print, per
# package, each function that none of them links. Anything printed
# fails the target; tests do not count as callers.
REACH_PKGS = nn candle data sim core

reach:
	@d=$$(mktemp -d) && trap 'rm -rf $$d' EXIT && mkdir $$d/bin && \
	$(GO) build -gcflags=all=-l -o $$d/bin/ $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) && \
	for b in $$d/bin/*; do $(GO) tool nm $$b; done > $$d/syms && \
	status=0 && for p in $(REACH_PKGS); do \
		sed -nE "s/.* candle\/internal\/$$p\.([A-Za-z0-9_]+)(\[.*)?$$/\1/p" $$d/syms | sort -u > $$d/linked && \
		dead=$$($(GO) doc -all ./internal/$$p | sed -nE 's/^func ([A-Za-z0-9_]+).*/\1/p' | sort -u | comm -23 - $$d/linked) && \
		if [ -n "$$dead" ]; then echo "$$p:" $$dead; status=1; fi; \
	done; exit $$status

# The paper layer — the packages that regenerate the paper's tables
# from calibrated constants — is a leaf: no other internal/ package
# depends on it, directly or through another. Prints each offender and
# the paper-layer packages it pulls in.
PAPER_PKGS = core sim des hpc power report advisor supervisor

layers:
	@paper=$$(for p in $(PAPER_PKGS); do echo candle/internal/$$p; done) && status=0 && \
	for pkg in $$($(GO) list ./internal/...); do \
		case " $(PAPER_PKGS) " in *" $${pkg#candle/internal/} "*) continue;; esac; \
		bad=$$($(GO) list -deps $$pkg | grep -Fx "$$paper") || true; \
		if [ -n "$$bad" ]; then echo "$${pkg#candle/}:" $$bad; status=1; fi; \
	done; exit $$status

# The benchmark is the driver's gate and calls internal/ APIs directly;
# name it explicitly so breaking one of them fails here, not there.
bench-build:
	$(GO) vet ./benchmark && $(GO) build -o /dev/null ./benchmark

# Kernel and layer-step micro-benchmarks, for work on one kernel or
# layer; what a change is worth end to end is benchmark/'s to say.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/tensor ./internal/nn

# One iteration of the parameter-update probe: it cannot time anything,
# it keeps BenchmarkOptimizerStep compiling and running.
bench-optimizer-smoke:
	$(GO) test -bench BenchmarkOptimizerStep -benchtime 1x -run '^$$' ./internal/nn

# The benchmark's suite driver at test scale: a child process per
# workload, result files and summary.json, every output check, tiny
# inputs and no targets, into a temporary directory. No -against self:
# at this scale its verdicts are noise.
bench-smoke:
	d=$$(mktemp -d) && $(GO) run ./benchmark -smoke -out $$d; s=$$?; rm -rf $$d; exit $$s

# Multi-process smoke: `candle launch` spawns 2 `candle run` worker
# processes x 2 ranks over unix sockets, pinned seed, bit-identical to
# the 4-rank in-process run.
launch-smoke:
	$(GO) test -count=1 -run TestLaunchSmokeBitIdentical -v ./cmd/candle

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

# The 200-seed sweep is the check that runs the socket world's
# session-dropping elastic recovery under the harness's invariants.
ci: build test-matrix race fleet-race vet reach layers bench-build bench-optimizer-smoke bench-smoke sim-smoke launch-smoke fleet-smoke
	$(MAKE) sim-multi-seed SEEDS=200
