# The tier-1 gate: everything a PR must keep green.
.PHONY: verify test build vet fmt lint garlint race bench bench-translate bench-generalize bench-restore bench-build bench-smoke cover qualgate stress perfbench

build:
	go build ./...

vet:
	go vet ./...

# fmt fails when a tracked Go file is not gofmt-clean. testdata is
# exempt: the garlint analyzer fixtures there are parsed, not built.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"; \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# garlint builds the repository's custom vet tool (see cmd/garlint);
# lint runs its seven analyzers (nopanic, ctxpass, mustonly, snaponce,
# lockhold, goexit, errlost) over every package through the go vet
# driver. Add -suppressions/-json/-github after the package list to
# reshape the report.
garlint:
	go build -o bin/garlint ./cmd/garlint

lint: garlint
	go vet -vettool=bin/garlint ./...

test:
	go test ./...

race:
	go test -race ./...

# perfbench vets and tests the benchmark harness. It is its own module,
# so `go build ./...` and `go test ./...` never compile it, yet it
# imports the checkpoint, feedback and model-file APIs.
perfbench:
	cd perfbench && go vet ./... && go test ./...

# verify is the full robustness gate: build, static checks (go vet,
# gofmt and the custom garlint analyzers), the whole suite (including
# the fault-injection matrix and the concurrent translate stress test)
# under the race detector, the benchmark harness's own vet and tests,
# and the translation-quality ratchet.
verify: build vet fmt lint race perfbench qualgate

bench:
	go test -bench=. -benchmem

# bench-translate regenerates the committed BENCH_translate.json: the
# translate hot path measured sequential-vs-batched (with a ranked-
# output equality assertion) and cache miss-vs-hit.
bench-translate:
	go run ./cmd/garbench -bench translate -iters 5 -benchout BENCH_translate.json

# bench-generalize regenerates the committed BENCH_generalize.json: the
# budget-governed streaming pool build at 1k/10k/100k records, with
# byte-identical-replay, budget-peak, and heap-vs-budget assertions.
bench-generalize:
	go run ./cmd/garbench -bench generalize -iters 3 -benchout BENCH_generalize.json

# bench-restore regenerates the committed BENCH_restore.json: a
# SPIDER-like tenant at pool cap 2,000 exported once and restored from
# its checkpoint at GOMAXPROCS 1 and N (p50, allocs/op), with an
# answer-equality assertion against the exporter.
bench-restore:
	go run ./cmd/garbench -bench restore -iters 20 -benchout BENCH_restore.json

# bench-build regenerates the committed BENCH_build.json: a SPIDER-like
# tenant's cold build (Prepare, TrainModels, UseModels) stage by stage
# at pool caps 2,000 and 6,000, GOMAXPROCS 1 and N (ms, allocs and
# bytes per stage), with every build's models digest asserted equal to
# the committed one and to its parent block's (on amd64).
bench-build:
	go run ./cmd/garbench -bench build -scale full -iters 5 -benchout BENCH_build.json

# bench-smoke is the CI smoke run: one short iteration proving each
# benchmark harness still builds, runs, and passes its equality
# assertions; the JSON goes to a scratch path so CI never dirties the
# committed numbers. The build harness runs the pool-2,000 tenant once
# per GOMAXPROCS setting and asserts the committed models digest.
bench-smoke:
	go run ./cmd/garbench -bench translate -iters 1 -benchout /tmp/BENCH_translate.json
	go run ./cmd/garbench -bench generalize -iters 1 -benchout /tmp/BENCH_generalize.json
	go run ./cmd/garbench -bench restore -iters 3 -benchout /tmp/BENCH_restore.json
	go run ./cmd/garbench -bench build -iters 1 -benchout /tmp/BENCH_build.json

# cover is the coverage gate: per-package floors live in
# coverage_floors.json and a package may not fall more than one point
# below its floor. After adding tests, ratchet the floors up with
# `go run ./cmd/covergate -write`.
cover:
	go run ./cmd/covergate -floors coverage_floors.json

# qualgate is the translation-quality ratchet: it retrains the committed
# benchmark suites from seed, measures top-1/top-k accuracy and
# translate latency for both the LTR-only and execution-guided
# pipelines, and fails on any accuracy drop (exact — training is
# deterministic) or a p50 regression beyond max(3x baseline, 250ms).
# On failure the measured-vs-committed diff lands in
# BASELINE_quality_diff.json. After a deliberate improvement, ratchet
# with `go run ./cmd/garbench -baseline -write`.
qualgate:
	go run ./cmd/garbench -baseline

# stress runs the overload and resilience suites under the race
# detector: burst admission (deterministic saturation via fault gates),
# snapshot-swap races against live traffic, breaker trip/recover
# cycles, the fault-injection matrix, torn-write persistence, the
# checkpoint crash/recovery drills (write/recover fault matrix, SIGKILL
# mid-write crash matrix, SIGTERM restart round-trip, the upgrade of a
# single-database state directory), the request contract (JSON errors
# on every route), the fleet suite (tenant isolation under faults,
# per-tenant burst shedding, LRU eviction/warm-reactivation churn,
# fleet restart round-trip), and the online learning loop (feedback
# WAL fault matrix and SIGKILL crash drill, shadow-gated promotion,
# rollback under live traffic), and the shared durable-file layer's
# fault and codec tests. It first lists the packages' tests and fails
# if an alternative of the -run pattern matches none, so a renamed or
# deleted test cannot drop out of the run unnoticed.
STRESS_RUN := TestServeBurst|TestServeReload|TestServeNotReady|TestServeHealthzDegraded|TestServeRequestValidation|TestSwap|TestRerankBreaker|TestStageBudget|TestPrepareDuringTraffic|TestBreaker|TestAcquire|TestShed|TestQueued|TestBurst|TestBlockGate|TestFault|TestConcurrent|TestLoadModels|TestModelPersistence|TestParallelTranslateDeterminism|TestCheckpoint|TestCrash|TestRecover|TestStore|TestServeRestartSIGTERM|TestServeUpgradesSingleDatabaseStateDir|TestServeWarmStart|TestServeAllCorrupt|TestFleet|TestServeFleet|TestFeedback|TestTrainer|TestOnline|TestServeFeedback|TestDurable
STRESS_PKGS := ./cmd/gar/ ./internal/core/ ./internal/admit/ ./internal/breaker/ ./internal/faults/ ./internal/checkpoint/ ./internal/fleet/ ./internal/feedback/ ./internal/spill/ ./internal/memgov/ ./internal/durable/ ./gar/

stress:
	@tests="$$(go test -list '.*' $(STRESS_PKGS))" || { echo "$$tests"; exit 1; }; \
	tests="$$(echo "$$tests" | grep -E '^(Test|Fuzz|Benchmark|Example)')"; \
	missing=""; \
	for alt in $$(echo '$(STRESS_RUN)' | tr '|' ' '); do \
		echo "$$tests" | grep -Eq "$$alt" || missing="$$missing $$alt"; \
	done; \
	if [ -n "$$missing" ]; then echo "make stress: no test matches -run alternative(s):$$missing"; exit 1; fi
	go test -race -timeout 10m -count=1 -run '$(STRESS_RUN)' $(STRESS_PKGS)
