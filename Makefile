# Repository check targets. `make check` is the CI gate: formatting,
# vet, build, the full test suite under the race detector, a bounded
# fuzz smoke over the PHP lexer and parser, and the benchmark module.

GO ?= go
# Per-target budget for the fuzz smoke; raise for a real fuzzing session
# (e.g. make fuzz-smoke FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race fuzz-smoke crash-matrix registry-sim daemon-chaos summary-diff bench bench-scan bench-smt bench-interp bench-interp-diff bench-smoke bench-module

check: fmt vet build race fuzz-smoke bench-smoke bench-module

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; \
		gofmt -d $$out; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Crash-safety acceptance suite under the race detector: kill the batch
# at every journal-write boundary and require the resumed sweep to merge
# byte-identically (uchecker), plus the journal corruption matrix and
# cache torture tests (scanjournal) and the cancellation/loader
# robustness satellites.
crash-matrix:
	$(GO) test -race -run 'TestCrashResumeMatrix|TestBatchJournalCorruptionRecovery|TestBatchResumeAfterOptionsChange|TestBatchSemanticCorruptionCompaction|TestBatchDuplicateTargetNames|TestBatchCacheCorrectness|TestBatchCacheReadFault|TestScanBatchCancelledTargets' ./internal/uchecker
	$(GO) test -race ./internal/scanjournal
	$(GO) test -race -run 'TestLoadTargetUnreadable|TestWriteToAtomic' ./cmd/uchecker

# Bounded coverage-guided fuzzing of the robustness frontier: the lexer
# and parser must never panic on malformed PHP (the scanner's parse-stage
# fault containment assumes it), and the summary strategy must keep its
# contract with inlining on arbitrary programs. Seed corpora live under
# each package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/phplex
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/phpparser
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime $(FUZZTIME) ./internal/phpparser
	$(GO) test -run '^$$' -fuzz '^FuzzSummaryEquivalence$$' -fuzztime $(FUZZTIME) ./internal/interp
	$(GO) test -run '^$$' -fuzz '^FuzzJournalFold$$' -fuzztime $(FUZZTIME) ./internal/scanjournal
	$(GO) test -run '^$$' -fuzz '^FuzzCoordFold$$' -fuzztime $(FUZZTIME) ./internal/shardcoord

# Registry-scale distributed-scanning acceptance suite under the race
# detector: a 4-worker fleet over a 40-target corpus with a victim
# worker killed (crash semantics) at every lease/journal/publish/fold
# boundary, a paused-then-resumed zombie writer fenced off by token
# checks, graceful SIGTERM-style drain, a real kill -9 of a worker
# subprocess, and the shardcoord lease-protocol suite. The resumed
# fleet's merged report must be byte-identical to an uninterrupted
# single-process sweep; a clean run's merged report is archived at
# REGISTRY_SIM_merged.json.
registry-sim:
	REGISTRY_SIM_OUT=$(CURDIR)/REGISTRY_SIM_merged.json $(GO) test -race -run 'TestRegistrySimCrashMatrix|TestWorkerFleetMergesIdentical|TestWorkerZombieFencedEndToEnd|TestWorkerDrainReleasesLease|TestBatchDrainSemantics|TestBatchCancelSemantics|TestBatchTransientAppendRetry|TestSubprocessKillNine' ./internal/uchecker
	$(GO) test -race ./internal/shardcoord
	@echo "wrote REGISTRY_SIM_merged.json"

# Scan-as-a-service crash-tolerance acceptance suite under the race
# detector: the daemon is killed at EVERY job-lifecycle journal append
# (submit/start/finish of every job plus the manifest, at 1 and 4 scan
# workers) and at each daemon-specific fault seam
# (dequeue/checkpoint/drain), plus a real kill -9 of a daemon
# subprocess mid-scan; every restarted daemon must resume the accepted
# jobs to results byte-identical to an uninterrupted baseline, with no
# job lost, none double-submitted, and at most one terminal journal
# record per job. The clean baseline's canonical reports and the matrix
# shape are archived at DAEMON_CHAOS_matrix.json.
daemon-chaos:
	DAEMON_CHAOS_OUT=$(CURDIR)/DAEMON_CHAOS_matrix.json $(GO) test -race -run 'TestDaemonChaosMatrix|TestDaemonSeamCrashes|TestDaemonChaosKillNine$$' ./internal/scand
	@echo "wrote DAEMON_CHAOS_matrix.json"

# Interprocedural-strategy differential acceptance suite under the race
# detector: summary vs inline on every corpus app at Workers=1/4
# (findings and Table III verdicts byte-identical modulo summary-only
# work counters, and every Workers=1 report matching the frozen hashes
# in internal/uchecker/testdata/corpus_reports.golden), the Cimy
# path-explosion case completing cleanly under default budgets with zero
# retries, the summary artifact cache's cold/warm/corrupt/version-skew
# cycle, the daemon's cross-job summary reuse, and the unit-level
# merge/summary suites.
summary-diff:
	$(GO) test -race -run 'TestSummaryDifferentialCorpus|TestCimySummaryCompletes|TestInterprocFingerprintToken|TestInlineReportHasNoSummaryCounters|TestSummaryArtifactCache' ./internal/uchecker
	$(GO) test -race -run 'TestMerge|TestNoMerge|TestTrivial|TestEscapedCallee|TestMethodCallNeverSummarized|TestSummary' ./internal/interp
	$(GO) test -race ./internal/summary
	$(GO) test -race -run 'TestHTTPMetricsExposeSummaryCounters' ./internal/scand

# Paper-evaluation benchmarks (bench_test.go).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The Scanner v2 serial-vs-parallel pair.
bench-scan:
	$(GO) test -run '^$$' -bench 'BenchmarkScan(Serial|Parallel|Roots)' .

# Shared-structure constraint-engine micro-benchmarks (interned vs the
# Options.DisableIntern ablation), archived as JSON for cross-commit
# comparison.
bench-smt:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkSimplifyShared|BenchmarkSolverIncremental|BenchmarkInternConstruction' -benchtime 2s -benchmem ./internal/smt; \
	   $(GO) test -run '^$$' -bench 'BenchmarkPathForkDeep|BenchmarkEnvGetForked' -benchtime 2s -benchmem ./internal/heapgraph; } | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_smt.json
	@echo "wrote BENCH_smt.json"

# Symbolic-execution benchmarks: the interpreter alone on the most
# path-heavy completing app, a 32-root app end to end, and the serial
# full-corpus sweep — archived as JSON for cross-commit comparison.
INTERP_BENCH = ^Benchmark(PhaseSymbolicExecution|ScanRoots|ScanSerial)$$
bench-interp:
	@$(GO) test -run '^$$' -bench '$(INTERP_BENCH)' -benchtime 2s -benchmem . | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_interp.json
	@echo "wrote BENCH_interp.json"

# Symbolic-execution regression gate: re-runs bench-interp's suite and
# fails when ns/op or allocs/op regresses more than 15% against the
# committed BENCH_interp.json. The fresh run lands in
# BENCH_interp.new.json — CI archives it as the candidate baseline, and
# after an intentional perf change it replaces the committed file.
bench-interp-diff:
	@$(GO) test -run '^$$' -bench '$(INTERP_BENCH)' -benchtime 2s -benchmem . | tee /dev/stderr | \
	  $(GO) run ./cmd/benchjson -baseline BENCH_interp.json -max-regress 15 -match '^Benchmark(PhaseSymbolicExecution|ScanRoots|ScanSerial)' -out BENCH_interp.new.json
	@echo "wrote BENCH_interp.new.json (candidate baseline)"

# One-iteration smoke over the constraint-engine and symbolic-execution
# benchmarks: keeps the benchmark harnesses compiling and running inside
# `make check` without paying for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSimplifyShared|BenchmarkSolverIncremental|BenchmarkInternConstruction' -benchtime 1x ./internal/smt
	$(GO) test -run '^$$' -bench 'BenchmarkPathForkDeep|BenchmarkEnvGetForked' -benchtime 1x ./internal/heapgraph
	$(GO) test -run '^$$' -bench '$(INTERP_BENCH)' -benchtime 1x .

# The repo benchmark (bench/, driven by bench/run.sh) is its own Go
# module, so the root `go build ./...` never compiles it: vet and test
# it here so an internal API change that breaks it fails CI.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...
