GO ?= go

.PHONY: all build vet test race portable check chaos chaos-smoke fuzz-smoke bench bench-smoke bench-check bench-json bench-det reprod-smoke wal-smoke experiments examples loc clean

all: build vet test

# check is the pre-PR gate: everything that must be green before merging.
# There is no linter: each hazard a lint rule once guarded is held by a
# test whose seeded bug fails it (DESIGN.md §8).
check: build vet loc test race portable chaos-smoke fuzz-smoke bench-smoke bench-det reprod-smoke wal-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector slows the experiment-reproduction tests ~10x, so the
# per-package timeout is raised above Go's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# portable runs the builds an amd64 host does not: the Go loop that stands
# in for the ε-compare kernel's SSE2 assembly on every other GOARCH (an
# amd64 host runs 386 test binaries natively) and vet of an arm64 build.
portable:
	GOARCH=386 $(GO) test ./internal/errbound ./internal/compare
	GOARCH=arm64 $(GO) vet ./internal/errbound

# chaos soaks the degradation ladder at full scale: seeded fault
# schedules × topologies under the race detector (see internal/chaos).
chaos:
	CHAOS_FULL=1 $(GO) test -race -count=1 -timeout 30m -v -run 'TestChaos' ./internal/chaos/

# chaos-smoke is the small-scale soak that gates `make check`.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/chaos/

# fuzz-smoke runs each native fuzz target for a few seconds on top of its
# checked-in corpus (testdata/fuzz/); part of `make check`. The two kernels
# against their seed oracles come first — the ε-compare against its
# per-element reference, the leaf hash against the scratch-buffer SumDigest
# chaining; then stage 2's copy planner, whose ranges must land every
# extent a window priced once, in copies of adjacent extents, with the
# bytes a ReadAt per extent reads; the rest are the decoders, which read
# through framelog.Cursor:
# the framed log's scanner (the journal and the CAS index replay through
# it), the journal's record payload behind that scanner, the CAS manifest,
# the checkpoint header, the metadata container (and through it
# merkle.Decode); last, the mpi f64 vector codec, a length check and a
# loop held to the same contract. FuzzCompareSlices caps the minimizer: its
# corpus holds kilobyte seeds, and left alone the fuzzer spends the five
# seconds (up to a minute per input) shrinking the first mutant that finds
# new coverage instead of executing — ~1 000 executions against ~140 000.
# FuzzRangeCopies caps it too: each input is a whole stage-2 run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCompareSlices$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/errbound
	$(GO) test -run '^$$' -fuzz '^FuzzHashChunk$$' -fuzztime 5s ./internal/errbound
	$(GO) test -run '^$$' -fuzz '^FuzzRangeCopies$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/stream
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 5s ./internal/framelog
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime 5s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime 5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzParseHeader$$' -fuzztime 5s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMetadata$$' -fuzztime 5s ./internal/compare
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeF64$$' -fuzztime 5s ./internal/mpi

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke validates the benchmark runners end-to-end (tiny sizes,
# output discarded: milliseconds each for the suite runners, ~10 s for the
# whole-stack benchmark); part of `make check`.
bench-smoke:
	$(GO) run ./cmd/benchstream -smoke > /dev/null
	$(GO) run ./cmd/benchgroup -smoke > /dev/null
	$(GO) run ./cmd/benchcapture -smoke > /dev/null
	$(GO) run ./cmd/benchshard -smoke > /dev/null
	$(GO) run ./bench -smoke > /dev/null

# bench-check holds two `go run ./bench -o FILE` result files against the
# regression bounds of BENCHMARK.json: make bench-check BASE=a.json NEW=b.json
# (exit 1 when any end-to-end metric is worse beyond its bound).
bench-check:
	$(GO) run ./bench -check $(BASE) $(NEW)

# reprod-smoke boots the comparison daemon on a loopback listener and
# drives the full HTTP lifecycle: run registration, compare/group/shard
# jobs to their verdicts, error mapping, and graceful SIGTERM drain.
# Part of `make check`.
reprod-smoke:
	$(GO) test -count=1 -run 'TestReprodSmoke' ./cmd/reprod/

# wal-smoke is the crash-durability gate: a real reprod process with
# -journal takes a job to its verdict, dies by SIGKILL, and the
# restarted process must serve that verdict from the hash-chained
# ledger, with reprocmp verify-log green over the surviving chain.
# Part of `make check`.
wal-smoke:
	$(GO) test -count=1 -run 'TestWALKillRestartSmoke' ./cmd/reprod/

# bench-json regenerates the tracked baselines at the repository root:
# the stage-2 streaming pipeline (BENCH_stream.json), the N-run
# group-comparison engine (BENCH_group.json), the differential-capture
# pipeline (BENCH_capture.json), and the subtree-sharded scale-out engine
# (BENCH_shard.json). Diff them in review to catch regressions
# (same-machine deltas are signal, cross-machine noise; the virtual and
# read-op columns are deterministic and comparable anywhere — at one
# worker count, which is why the recipe pins the one the files have
# always been recorded at). Kernel throughput has no tracked file —
# nothing in it is deterministic: `go test -bench` measures the kernels
# (BenchmarkHashChunk, BenchmarkCompareSlices, BenchmarkAllClose in
# internal/errbound; BenchmarkBuild1024Leaves,
# BenchmarkDiffOneChange4096Leaves in internal/merkle).
bench-json: export GOMAXPROCS = 1
bench-json:
	$(GO) run ./cmd/benchstream -o BENCH_stream.json
	$(GO) run ./cmd/benchgroup -o BENCH_group.json
	$(GO) run ./cmd/benchcapture -o BENCH_capture.json
	$(GO) run ./cmd/benchshard -o BENCH_shard.json

# bench-det is the deterministic-column gate: the four runners are re-run
# at the recorded worker count into a temp dir, and every line of their
# output that is not a timestamp, a wall-clock measurement or a
# wall-derived rate must equal the tracked BENCH_*.json (~10 s). A diff
# means a virtual-time, read-op, byte or verdict column moved: either a
# regression, or a model decision to re-record with `make bench-json`
# and explain in the PR.
BENCH_WALL_KEYS = generated_at|go_version|wall_ms|incremental_ms_per_capture|full_rebuild_ms
bench-det: export GOMAXPROCS = 1
bench-det:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && status=0 && \
	for s in stream group capture shard; do \
		$(GO) run ./cmd/bench$$s -o $$tmp/BENCH_$$s.json || exit 1; \
		grep -vE '"($(BENCH_WALL_KEYS))":' BENCH_$$s.json > $$tmp/want; \
		grep -vE '"($(BENCH_WALL_KEYS))":' $$tmp/BENCH_$$s.json > $$tmp/got; \
		diff -u --label BENCH_$$s.json $$tmp/want --label rerun $$tmp/got || status=1; \
	done; \
	[ $$status -eq 0 ] && echo "bench-det: deterministic columns match the tracked baselines"

# Regenerate every paper table and figure (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ciregression
	$(GO) run ./examples/heatsolver
	$(GO) run ./examples/haccrepro
	$(GO) run ./examples/onlinecompare

# loc prints the non-test Go and assembly lines of every package and the two
# sums ROADMAP's line-count acceptances are stated in: internal/compare +
# internal/shard (the planners) and internal/compare + internal/stream
# (stage 2). Part of `make check`: it fails when the total exceeds
# LOC_CEILING, the total of the last PR that lowered it — a PR that removes
# code lowers the ceiling to its own result, one that must add code raises
# it in the same diff, where a reviewer sees it.
LOC_CEILING = 25437
LOC_FILES = \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go'
loc:
	@for d in $$(find . $(LOC_FILES) | xargs -n1 dirname | sort -u); do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 $(LOC_FILES) | xargs cat | wc -l) $$d; \
	done
	@printf '%7d internal/compare + internal/shard\n' \
		$$(ls internal/compare/*.go internal/shard/*.go | grep -v _test.go | xargs cat | wc -l)
	@printf '%7d internal/compare + internal/stream\n' \
		$$(ls internal/compare/*.go internal/stream/*.go | grep -v _test.go | xargs cat | wc -l)
	@total=$$(find . $(LOC_FILES) | xargs cat | wc -l); \
	printf '%7d total (ceiling $(LOC_CEILING))\n' $$total; \
	[ $$total -le $(LOC_CEILING) ] || { echo "loc: non-test Go and assembly lines exceed the ceiling"; exit 1; }

clean:
	$(GO) clean ./...
