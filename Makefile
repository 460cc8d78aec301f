# Repository check targets. `make check` is the CI gate: formatting,
# vet, build, the full test suite under the race detector, a bounded
# fuzz smoke over every fuzz target, the benchmark module, and one
# end-to-end ucheck-bench run.

GO ?= go
# Per-target budget for the fuzz smoke; raise for a real fuzzing session
# (e.g. make fuzz-smoke FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race fuzz-smoke crash-matrix registry-sim daemon-chaos summary-diff bench bench-scan bench-smt bench-smt-diff bench-interp bench-interp-diff bench-interp-paired bench-smoke bench-module ucheck-bench-smoke

check: fmt vet build race fuzz-smoke bench-smoke bench-module ucheck-bench-smoke

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
# byte-identically (uchecker), fail one append at its write and at its
# fsync and require the batch to abort and the resume to report no
# corruption (a failed append is a crash, never retried), plus the
# journal corruption matrix and cache torture tests (scanjournal) and
# the cancellation/loader robustness satellites.
crash-matrix:
	$(GO) test -race -run 'TestCrashResumeMatrix|TestBatchJournalFaultIsCrash|TestBatchJournalCorruptionRecovery|TestBatchResumeAfterOptionsChange|TestBatchSemanticCorruptionCompaction|TestBatchDuplicateTargetNames|TestBatchCacheCorrectness|TestBatchCacheReadFault|TestScanBatchCancelledTargets' ./internal/uchecker
	$(GO) test -race ./internal/scanjournal
	$(GO) test -race -run 'TestLoadTargetUnreadable|TestWriteToAtomic' ./cmd/uchecker

# Bounded coverage-guided fuzzing of every fuzz target in the repo: the
# lexer and parser must never panic on malformed PHP (the scanner's
# parse-stage fault containment assumes it); an interpreter run must not
# depend on earlier runs over the same files, and the summary strategy
# must keep its contract with inlining, on arbitrary programs; the
# journal and lease folds must survive arbitrary records; the interning
# factory must agree with the direct constructors; and the solver's
# search plan must prune exactly where Eval says a conjunct fails. Seed
# corpora live under each package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/phplex
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/phpparser
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime $(FUZZTIME) ./internal/phpparser
	$(GO) test -run '^$$' -fuzz '^FuzzEngineEquivalence$$' -fuzztime $(FUZZTIME) ./internal/interp
	$(GO) test -run '^$$' -fuzz '^FuzzSummaryEquivalence$$' -fuzztime $(FUZZTIME) ./internal/interp
	$(GO) test -run '^$$' -fuzz '^FuzzJournalFold$$' -fuzztime $(FUZZTIME) ./internal/scanjournal
	$(GO) test -run '^$$' -fuzz '^FuzzCoordFold$$' -fuzztime $(FUZZTIME) ./internal/shardcoord
	$(GO) test -run '^$$' -fuzz '^FuzzFactoryEquivalence$$' -fuzztime $(FUZZTIME) ./internal/smt
	$(GO) test -run '^$$' -fuzz '^FuzzSearchPlan$$' -fuzztime $(FUZZTIME) ./internal/smt

# Registry-scale distributed-scanning acceptance suite under the race
# detector: a 4-worker fleet over a 40-target corpus with a victim
# worker killed (crash semantics) at every lease/journal/publish/fold
# boundary, a paused-then-resumed zombie writer fenced off by token
# checks, graceful SIGTERM-style drain, a real kill -9 of a worker
# subprocess, and the shardcoord lease-protocol suite (a claim whose
# fsync fails is a failed claim, recorded once). The resumed
# fleet's merged report must be byte-identical to an uninterrupted
# single-process sweep; a clean run's merged report is archived at
# REGISTRY_SIM_merged.json.
registry-sim:
	REGISTRY_SIM_OUT=$(CURDIR)/REGISTRY_SIM_merged.json $(GO) test -race -run 'TestRegistrySimCrashMatrix|TestWorkerFleetMergesIdentical|TestWorkerZombieFencedEndToEnd|TestWorkerDrainReleasesLease|TestBatchDrainSemantics|TestBatchCancelSemantics|TestSubprocessKillNine' ./internal/uchecker
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
# record per job. A job submitted over HTTP (JSON and tarball) and
# crashed before its start record must restart from its spool to a fresh
# daemon's result bytes. A submit whose journal fsync fails is refused
# and its record is not appended again: the restarted daemon folds a
# clean journal and finishes every job it knows. The clean baseline's
# canonical reports and the matrix shape are archived at
# DAEMON_CHAOS_matrix.json.
daemon-chaos:
	DAEMON_CHAOS_OUT=$(CURDIR)/DAEMON_CHAOS_matrix.json $(GO) test -race -run 'TestDaemonChaosMatrix|TestDaemonSeamCrashes|TestDaemonChaosKillNine$$|TestDaemonRestartFromHTTPSpool|TestJournalSyncFaultIsCrash' ./internal/scand
	@echo "wrote DAEMON_CHAOS_matrix.json"

# Interprocedural-strategy differential acceptance suite under the race
# detector: summary vs inline on every corpus app at Workers=1/4
# (findings and Table III verdicts byte-identical modulo summary-only
# work counters, each strategy's reports byte-identical across worker
# counts, and every Workers=1 report matching the frozen hashes in
# internal/uchecker/testdata/corpus_reports.golden), the Cimy
# path-explosion case completing cleanly under default budgets with zero
# retries, summary-mode reports byte-identical at Workers=1/2/8 on the
# determinism suite's apps, reports that do not depend on what the
# scanner or the daemon scanned before, the shapes on which the call
# graph, the interpreter and the summary table once disagreed
# (TestProgramTableAgreement: a function nested in a method body, "./"
# and "../" includes, constructor-only and call_user_func-only sinks,
# and a callee's sink, include and __DIR__ in its declaring file),
# every FuzzSummaryEquivalence seed (seed_nested_method_func among
# them), and the unit-level merge/summary suites (including concurrent
# first lookups).
summary-diff:
	$(GO) test -race -run 'TestSummaryDifferentialCorpus|TestCimySummaryCompletes|TestInterprocFingerprintToken|TestInlineReportHasNoSummaryCounters|TestSummaryReportIgnoresScanHistory|TestProgramTableAgreement' ./internal/uchecker
	$(GO) test -race -run 'TestScanDeterministicAcrossWorkers/.*/summary' ./internal/uchecker
	$(GO) test -race -run 'TestMerge|TestNoMerge|TestTrivial|TestEscapedCallee|TestMethodCallNeverSummarized|TestSummary|FuzzSummaryEquivalence' ./internal/interp
	$(GO) test -race ./internal/summary
	$(GO) test -race -run 'TestHTTPMetricsExposeSummaryCounters' ./internal/scand

# Paper-evaluation benchmarks (bench_test.go).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The Scanner v2 serial-vs-parallel pair.
bench-scan:
	$(GO) test -run '^$$' -bench 'BenchmarkScan(Serial|Parallel|Roots)' .

# Shared-structure constraint-engine micro-benchmarks (interned vs the
# Options.DisableIntern ablation, and the model search on
# portfolio-showcase's budget-exhausting cube), the heap graph's fork
# and lookup costs, one interpreter run of Cimy up to its path-budget
# abort, and one plugin through the daemon's HTTP API as a cold job and
# two cache hits, archived as JSON for cross-commit comparison. The
# bench-smt and bench-interp recipes tee with -a: when make's output is
# redirected to a file, a truncating reopen of /dev/stderr would erase
# what earlier targets logged.
SMT_BENCH = 'BenchmarkSimplifyShared|BenchmarkSolverIncremental|BenchmarkInternConstruction|BenchmarkSolverSearch'
HEAPGRAPH_BENCH = 'BenchmarkPathForkDeep|BenchmarkEnvGetForked'
CIMY_BENCH = '^BenchmarkRunCimyAbort$$'
SCAND_BENCH = '^BenchmarkDaemonJob$$'
bench-smt:
	@{ $(GO) test -run '^$$' -bench $(SMT_BENCH) -benchtime 2s -benchmem ./internal/smt; \
	   $(GO) test -run '^$$' -bench $(HEAPGRAPH_BENCH) -benchtime 2s -benchmem ./internal/heapgraph; \
	   $(GO) test -run '^$$' -bench $(CIMY_BENCH) -benchtime 2s -benchmem ./internal/interp; \
	   $(GO) test -run '^$$' -bench $(SCAND_BENCH) -benchtime 2s -benchmem ./internal/scand; } | tee -a /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_smt.json
	@echo "wrote BENCH_smt.json"

# Constraint-engine, heap-graph, Cimy-abort and daemon-job allocation
# gate: re-runs bench-smt's suite and fails when allocs/op or B/op
# regresses more than 15% against the committed BENCH_smt.json. ns/op
# is not gated here: it follows the host's speed, which drifts by 2x or
# more, while allocations do not depend on the host. The fresh run
# lands in BENCH_smt.new.json.
bench-smt-diff:
	@{ $(GO) test -run '^$$' -bench $(SMT_BENCH) -benchtime 2s -benchmem ./internal/smt; \
	   $(GO) test -run '^$$' -bench $(HEAPGRAPH_BENCH) -benchtime 2s -benchmem ./internal/heapgraph; \
	   $(GO) test -run '^$$' -bench $(CIMY_BENCH) -benchtime 2s -benchmem ./internal/interp; \
	   $(GO) test -run '^$$' -bench $(SCAND_BENCH) -benchtime 2s -benchmem ./internal/scand; } | tee -a /dev/stderr | \
	  $(GO) run ./cmd/benchjson -baseline BENCH_smt.json -max-regress 15 -metrics allocs/op,B/op -out BENCH_smt.new.json
	@echo "wrote BENCH_smt.new.json (candidate baseline)"

# Parse, call-graph and symbolic-execution benchmarks: the parser alone
# on the largest corpus app, call-graph construction plus root selection
# on the same app, the interpreter alone on the most path-heavy
# completing app, a 32-root app end to end, the serial full-corpus
# sweep, and 200 generated plugins scanned one at a time as the
# screening workload scans them — archived as JSON for cross-commit
# comparison.
INTERP_BENCH = ^Benchmark(PhaseParse|PhaseCallgraphLocality|PhaseSymbolicExecution|ScanRoots|ScanSerial|ScanScreening)$$
bench-interp:
	@$(GO) test -run '^$$' -bench '$(INTERP_BENCH)' -benchtime 2s -benchmem . | tee -a /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_interp.json
	@echo "wrote BENCH_interp.json"

# Parse, call-graph and symbolic-execution regression gate: re-runs
# bench-interp's suite and fails when ns/op, allocs/op or B/op regresses
# more than 15% against the committed BENCH_interp.json. The fresh run
# lands in BENCH_interp.new.json — CI archives it as the candidate
# baseline, and after an intentional perf change it replaces the
# committed file.
bench-interp-diff:
	@$(GO) test -run '^$$' -bench '$(INTERP_BENCH)' -benchtime 2s -benchmem . | tee -a /dev/stderr | \
	  $(GO) run ./cmd/benchjson -baseline BENCH_interp.json -max-regress 15 -match '^Benchmark(PhaseParse|PhaseCallgraphLocality|PhaseSymbolicExecution|ScanRoots|ScanSerial|ScanScreening)' -out BENCH_interp.new.json
	@echo "wrote BENCH_interp.new.json (candidate baseline)"

# Paired parent-vs-change run of bench-interp's suite and of
# BenchmarkRunCimyAbort, for reading ns/op on a host whose speed drifts
# between runs (bench-interp-diff compares against numbers recorded on
# another day, and bench-smt-diff gates the Cimy abort's allocations
# only). The test binaries of the root package and of internal/interp
# are built once from PARENT (exported with git archive under the
# git-ignored .bench_build/) and once from the working tree; each pair
# runs both sides alternately, the parent first in odd pairs, each side
# from its own source tree, and appends the Cimy abort's run to the same
# side's output. benchjson -paired then prints, per benchmark, both
# medians, the parent's interquartile spread and the pairs the change
# won. It reports and gates nothing.
PARENT ?= HEAD~1
PAIRS ?= 5
PAIRED_DIR = .bench_build/paired
bench-interp-paired:
	@rm -rf $(PAIRED_DIR) && mkdir -p $(PAIRED_DIR)/parent
	@git archive $(PARENT) | tar -x -C $(PAIRED_DIR)/parent
	@cd $(PAIRED_DIR)/parent && $(GO) test -c -o ../parent.test . && $(GO) test -c -o ../parent-interp.test ./internal/interp
	@$(GO) test -c -o $(PAIRED_DIR)/change.test . && $(GO) test -c -o $(PAIRED_DIR)/change-interp.test ./internal/interp
	@for i in $$(seq 1 $(PAIRS)); do \
	  if [ $$((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
	  for side in $$order; do \
	    if [ $$side = parent ]; then dir=$(PAIRED_DIR)/parent; else dir=.; fi; \
	    echo "pair $$i: $$side" >&2; \
	    (cd $$dir && $(CURDIR)/$(PAIRED_DIR)/$$side.test -test.run '^$$' -test.bench '$(INTERP_BENCH)' \
	      -test.benchtime 2s -test.benchmem -test.timeout 30m) >> $(PAIRED_DIR)/$$side.txt || exit 1; \
	    (cd $$dir/internal/interp && $(CURDIR)/$(PAIRED_DIR)/$$side-interp.test -test.run '^$$' -test.bench $(CIMY_BENCH) \
	      -test.benchtime 2s -test.benchmem -test.timeout 30m) >> $(PAIRED_DIR)/$$side.txt || exit 1; \
	  done; \
	done
	@$(GO) run ./cmd/benchjson -paired $(PAIRED_DIR)/parent.txt $(PAIRED_DIR)/change.txt

# One-iteration smoke over the constraint-engine, parse, call-graph,
# symbolic-execution and daemon-job benchmarks: keeps the benchmark
# harnesses compiling and running inside `make check` without paying
# for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench $(SMT_BENCH) -benchtime 1x ./internal/smt
	$(GO) test -run '^$$' -bench $(HEAPGRAPH_BENCH) -benchtime 1x ./internal/heapgraph
	$(GO) test -run '^$$' -bench $(CIMY_BENCH) -benchtime 1x ./internal/interp
	$(GO) test -run '^$$' -bench $(SCAND_BENCH) -benchtime 1x ./internal/scand
	$(GO) test -run '^$$' -bench '$(INTERP_BENCH)' -benchtime 1x .

# The repo benchmark (bench/, driven by bench/run.sh) is its own Go
# module, so the root `go build ./...` never compiles it: vet and test
# it here so an internal API change that breaks it fails CI.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# cmd/ucheck-bench has no test of its own: run it once over Table III
# and the Section IV-C comparison with the failure, counter and
# per-phase timing tables (the last fed by Options.Trace), and require
# the phase table's TOTAL row in the output.
ucheck-bench-smoke:
	@out="$$($(GO) run ./cmd/ucheck-bench -all -phases -counters -failures -max-paths 20000)" || exit 1; \
	echo "$$out"; \
	echo "$$out" | grep -q '^TOTAL ' || { echo "ucheck-bench: the phase table has no TOTAL row"; exit 1; }
