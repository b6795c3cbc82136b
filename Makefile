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

.PHONY: build test check faults lint fmt bench bench-smoke bench-read-scaling bench-scan bench-module chaos

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

# check is the pre-merge gate: the fault-injection suite, the chaos oracle,
# gofmt, vet, the trust-invariant analyzers, the full suite under the race
# detector (the chunk store's commit pipeline and read cache are
# concurrent), a one-shot pass over every benchmark so the perf harness
# can't silently rot, and the nested benchmark module's own vet and tests.
check: faults chaos fmt
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) bench-smoke
	$(MAKE) bench-module

# bench reproduces the commit-pipeline / read-cache numbers recorded in
# EXPERIMENTS.md. Raw outputs are not committed; to regenerate the rest of
# the recorded evaluation, see "How to regenerate" at the top of
# EXPERIMENTS.md (cmd/footprint for Figure 8, cmd/tdbbench for Figures
# 9-11 and the suite ablation, `go test -bench` for the micro ablations).
bench:
	$(GO) test ./internal/chunkstore/ -run XXX -bench 'BenchmarkCommitParallelCrypto|BenchmarkConcurrentRead' -benchtime 1s

# bench-smoke runs every benchmark exactly once — not for numbers, only to
# keep the benchmarks compiling and passing their own assertions — plus the
# read-scaling and scan smokes below.
bench-smoke: bench-read-scaling bench-scan
	$(GO) test ./... -run XXX -bench . -benchtime 1x

# bench-read-scaling exercises the off-mutex read path (DESIGN.md §7.7) at
# 1 and 8 concurrent readers, and the wait-free snapshot hit path (§7.5) at
# 1 and 2. Like bench-smoke it is not for numbers: it keeps the
# snapshot/revalidate protocol, the sharded cache, the singleflight and the
# decode-table probe running under both the serial and the contended
# scheduler shape on every gate — though the hit path's ns/op at -cpu 1
# against 2 and its allocs/op are worth a glance when they print.
bench-read-scaling:
	$(GO) test ./internal/chunkstore/ -run XXX \
		-bench BenchmarkConcurrentRead -benchtime 1x -cpu 1,8
	$(GO) test . -run XXX \
		-bench BenchmarkSnapshotLookupHot -benchtime 20000x -cpu 1,2

# bench-scan runs the scan-pipeline experiment (DESIGN.md §7.8) in its
# seconds-long smoke shape: full-collection sweeps with the prefetch window
# off and on, against a simulated disk, with and without a live writer. Not
# for numbers on the gate — the full shape is `tdbbench -exp scan`.
bench-scan:
	$(GO) run ./cmd/tdbbench -exp scan -smoke

# bench-module vets and tests the repository benchmark (BENCHMARK.json),
# a nested module that root `go test ./...` never compiles.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
