GO ?= go
# LINTFLAGS passes extra flags to tdblint, e.g. an escape hatch while
# iterating: make check LINTFLAGS='-skip locked-io'.
LINTFLAGS ?=
# CHAOS_SEED / CHAOS_ACTIONS parameterize the chaos oracle (test/chaos).
# The defaults give a short deterministic run for the pre-merge gate; a
# failure prints the exact `make chaos CHAOS_SEED=… CHAOS_ACTIONS=…` line
# that replays it, and long runs are just bigger numbers:
# make chaos CHAOS_ACTIONS=20000 CHAOS_SEED=$$RANDOM
CHAOS_SEED ?= 42
CHAOS_ACTIONS ?= 1000
# FUZZTIME is how long fuzz-smoke runs each native fuzz target. The gate's
# 3 s checks that the targets build and hold their property on fresh
# inputs; the scheduled long run (.github/workflows/long.yml) searches
# with make fuzz-smoke FUZZTIME=60s.
FUZZTIME ?= 3s

.PHONY: build test check faults lint fmt bench bench-smoke bench-read-scaling bench-paper bench-module chaos fuzz-smoke read-repeat commit-repeat size

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the in-tree analyzer suite (cmd/tdblint) over the whole module:
# lock-region I/O discipline, error-taxonomy conformance, secret hygiene,
# clock injection, and unlock-path pairing. Stdlib-only; see DESIGN.md §6.
lint:
	$(GO) run ./cmd/tdblint $(LINTFLAGS) ./...

# fmt fails if any Go source in the tree (fixtures and the nested benchmark
# module included) is not gofmt-clean, naming the files.
fmt:
	@out="$$(gofmt -l . | grep -v '^\.bench_build/')"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# faults runs the hostile-disk suites under the race detector in short mode:
# programmable fault injection (transient I/O errors, bit rot, torn tails,
# lost unsynced writes, failing syncs), crash sweeps at every write boundary,
# transient retry semantics, the durable-commit contract, scrub/quarantine,
# and repair from the backup chain.
faults:
	$(GO) test -race -short -count=1 \
		-run 'Fault|Transient|Retry|IOError|Crash|Torn|Rot|Scrub|Quarantine|Degraded|Repair|Tamper|Unsynced|WriteBehind|Contract' \
		./internal/platform/ ./internal/chunkstore/ ./internal/backupstore/ \
		./internal/objectstore/ .

# chaos runs the deterministic full-stack chaos oracle (test/chaos) under
# the race detector: a seeded action trace of commits, scans, backups,
# restores, scrubs, repairs and restarts stormed with crashes, torn tails,
# lost unsynced writes, failing-sync windows and bit rot, checked against a
# shadow model after every recovery. Same seed, same trace.
chaos:
	$(GO) test -race -count=1 ./test/chaos/ \
		-args -chaos.seed=$(CHAOS_SEED) -chaos.actions=$(CHAOS_ACTIONS)

# fuzz-smoke runs every native fuzz target that `go test -list` finds in
# the module for FUZZTIME past its seeds and checked-in corpus, which plain
# `go test` already runs: at the default 3 s a check that the targets build
# and hold their property on fresh inputs, not a search (a longer FUZZTIME
# is one). A new target joins the gate by existing. A failing input is saved under the
# package's testdata/fuzz/ and replays in every later `go test`.
fuzz-smoke:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$list"; exit 1; }; \
	targets="$$(echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2 " " t[i]; n = 0 }')"; \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: no fuzz targets found"; exit 1; fi; \
	echo "$$targets" | while read pkg target; do \
		echo "fuzz-smoke: $$pkg $$target"; \
		$(GO) test "$$pkg" -run XXX -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -parallel 2 || exit 1; \
	done

# read-repeat runs the read-path tests twenty times under the race
# detector: the root scan tests, whose cold-scan segment reads, bytes and
# coalesced reads are pinned exactly (TestScanPrefetchWindows), so a scan
# pipeline that let timing change batch composition would fail some of the
# repetitions; TestConcurrentEvictingTransactions, every reader kind against
# constant map-node eviction; and the chunk store's read, CLOCK and
# cache-pressure tests, which race point reads, batches, fault-ins and the
# cleaner, hold the store mutex across a read's segment I/O
# (TestReadTakesStoreLockOnce) and free or close segments a read or a sync
# still holds (TestReadSegmentHandleLifetime); and the audit tests
# (TestAudits*): Verify, Scrub, ForEach and
# Diff each let a durable commit run inside a chunk-record read
# (TestAuditsScrubCommitInsideRecordRead), scrubs race a committer and the
# cleaner, a scrub meets a chunk rewritten or re-quarantined mid-walk, and a
# Diff streamed during commits matches the quiet one.
# (TestAuditedWorkloadUnderCachePressure is single-goroutine and takes
# seconds under -race; it runs once in the -race suite.)
read-repeat:
	$(GO) test -race -count=20 -run 'TestScan|TestConcurrentEvictingTransactions' .
	$(GO) test -race -count=20 \
		-run 'TestRead|TestNonResidentRead|TestPointRead|TestConcurrentReads|TestClock|TestMapNodeCacheEviction|TestAudits' \
		./internal/chunkstore/

# commit-repeat runs the harden coordinator's tests twenty times under the
# race detector. Which commit leads a round, and which round a commit joins,
# is decided purely by timing — rounds batch behind the in-flight sync with
# no window — so the tests pin round composition through the gated sync and
# counter seams, and a script that let timing leak into the count of syncs,
# advances or rounds would fail some of the repetitions.
commit-repeat:
	$(GO) test -race -count=20 \
		-run 'TestGroupCommit|TestRoundOfOne|TestDurableCommitContract|TestNextRound|TestFollower|TestFailedAdvance|TestCrashSweepOverlappedRounds|TestPipelineStress' \
		./internal/chunkstore/

# check is the pre-merge gate: the fault-injection suite, the chaos oracle,
# gofmt, a few seconds of fuzzing, the repeated read-path and commit-round
# tests, vet, the trust-invariant analyzers, the full suite under the race
# detector (the chunk store's commit pipeline and read path are concurrent),
# a one-shot pass over every benchmark so the perf harness can't silently
# rot, and the nested benchmark module's own vet and tests.
check: faults chaos fmt fuzz-smoke read-repeat commit-repeat
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) bench-smoke
	$(MAKE) bench-module

# size prints the non-test Go lines (wc -l) of every package of the root
# module, largest first, and their total. The nested benchmark module, the
# examples and the tdblint fixtures are not counted.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './examples/*' ! -path './cmd/tdblint/testdata/*' \
		! -path './.bench_build/*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); \
		if (d == "") d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "0 %7d %s\n", n[d], d; printf "1 %7d total\n", t }' | \
	sort -k1,1n -k2,2nr -k3 | cut -c3-

# bench reproduces the commit-pipeline / read-path numbers recorded in
# EXPERIMENTS.md: commits and reads at one and two Ps (-cpu 1,2), and
# commit stage 1 alone at the workloads' batch shapes
# (BenchmarkPrepareBatch); then a warm 64 × 1 KiB ReadBatch
# (BenchmarkReadBatchWarm) and the suites' seal and open of one record
# (BenchmarkSeal, BenchmarkOpen), with allocations: the per-record cost of a
# commit and of a scan; then repeated prefetching snapshot range scans over a
# collection twice the decode table's budget (BenchmarkSnapshotScan), at
# disjoint starts and over one repeated range: ns per record, allocations,
# and the segment reads of each scan and of the index query after it, 0
# while scans evict no index page. Stage 1 runs on
# the committing goroutine at every -cpu setting; -cpu 2 lets concurrent
# committers overlap. Raw
# outputs are not committed; to regenerate the rest of the recorded
# evaluation, see "How to regenerate" at the top of EXPERIMENTS.md
# (cmd/footprint for Figure 8, cmd/tdbbench for Figures 9-11 and the suite
# ablation, `go test -bench` for the micro ablations).
bench:
	$(GO) test ./internal/chunkstore/ -run XXX -bench 'BenchmarkCommitParallelCrypto|BenchmarkConcurrentRead|BenchmarkPrepareBatch' -benchtime 1s -cpu 1,2
	$(GO) test ./internal/chunkstore/ -run XXX -bench BenchmarkReadBatchWarm -benchmem -benchtime 1s
	$(GO) test ./internal/sec/ -run XXX -bench 'BenchmarkSeal|BenchmarkOpen' -benchmem -benchtime 1s
	$(GO) test . -run XXX -bench BenchmarkSnapshotScan -benchtime 1s

# bench-smoke runs every benchmark exactly once — not for numbers, only to
# keep the benchmarks compiling and passing their own assertions — plus the
# read-scaling and paper-harness smokes below. The crypto benchmarks run
# twice as well, so one that reuses state across iterations (a buffer
# decrypted in place twice) fails here.
bench-smoke: bench-read-scaling bench-paper
	$(GO) test ./... -run XXX -bench . -benchtime 1x
	$(GO) test ./internal/sec -run XXX -bench . -benchtime 2x

# bench-read-scaling exercises the off-mutex read path (DESIGN.md §7.7) at
# 1 and 8 concurrent readers, and the snapshot lookup path (§7.5) at 1 and
# 2: the wait-free hit and the miss that takes no table lock. Like
# bench-smoke it is not for numbers: it keeps the snapshot/revalidate
# protocol, the decode-table probe and its miss path running under both the
# serial and the contended scheduler shape on every gate — though each
# lookup path's ns/op at -cpu 1 against 2, its allocs/op and its segment
# reads/op (0 on the hit path) are worth a glance when they print.
bench-read-scaling:
	$(GO) test ./internal/chunkstore/ -run XXX \
		-bench BenchmarkConcurrentRead -benchtime 1x -cpu 1,8
	$(GO) test . -run XXX \
		-bench BenchmarkSnapshotLookupHot -benchtime 20000x -cpu 1,2
	$(GO) test . -run XXX \
		-bench BenchmarkSnapshotLookupCold -benchtime 2000x -cpu 1,2

# bench-paper runs the paper's evaluation harness (cmd/tdbbench: Figures 9,
# 10 and 11 and the suite ablation) end to end at 200 transactions per run,
# a few seconds. Not for numbers on the gate — the recorded shape is the
# default -txns 20000 (EXPERIMENTS.md).
bench-paper:
	$(GO) run ./cmd/tdbbench -exp all -txns 200

# bench-module vets and tests the repository benchmark (BENCHMARK.json),
# a nested module that root `go test ./...` never compiles.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
