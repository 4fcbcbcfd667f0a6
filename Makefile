GO ?= go

.PHONY: all build vet fmt test race portable check chaos chaos-smoke fuzz-smoke bench bench-smoke bench-check reprod-smoke wal-smoke experiments examples loc clean

all: build vet test

# check is the pre-PR gate: everything that must be green before merging.
# There is no linter: each hazard a lint rule once guarded is held by a
# test whose seeded bug fails it (DESIGN.md §8).
check: build vet fmt loc test race portable chaos-smoke fuzz-smoke bench-smoke reprod-smoke wal-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails, listing them, when any Go file is not as gofmt prints it.
fmt:
	test -z "$$(gofmt -l . | tee /dev/stderr)"

test:
	$(GO) test ./...

# The race detector slows the experiment-reproduction tests ~10x, so the
# per-package timeout is raised above Go's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# portable runs the builds an amd64 host does not: the Go loops that stand
# in for the ε-compare kernel's SSE2 assembly and the leaf hash's SSE4.1
# pair and AVX-512 wide kernels on every other GOARCH (an amd64 host runs
# 386 test binaries natively, stage 2's views included), vet of an arm64
# build, and vet of a GOOS without mmap, where pfs.File.Land copies, Open
# never finds a mapping to read through and pfs.Writer.Reserve is the stub
# that reserves nothing (and of the packages that hold a framelog writer
# across appends).
portable:
	GOARCH=386 $(GO) test ./internal/errbound ./internal/compare
	GOARCH=arm64 $(GO) vet ./internal/errbound
	GOOS=windows GOARCH=amd64 $(GO) vet ./internal/pfs ./internal/stream ./internal/compare ./internal/cas ./internal/ckpt ./internal/framelog ./internal/wal ./internal/service

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
# chaining (and HashChunks against it at a chunk size the input picks);
# then stage 2's window, which must land each of its extents once, as the
# bytes a ReadAt per extent reads, and price exactly the reference merge of
# them into runs at the MaxGap the input picks; the rest are the decoders,
# which read through framelog.Cursor:
# the framed log's scanner (the journal and the CAS index replay through
# it), the journal's record payload behind that scanner, the CAS manifest,
# the checkpoint header and the checkpoint name (held to the pattern it
# once was), the checkpoint encoder (held to the header-first encoder it
# replaced, byte for byte), the metadata container (and through it merkle.Decode); last,
# the mpi f64 vector codec, a length check and a loop held to the same
# contract. FuzzCompareSlices caps the minimizer: its
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
	$(GO) test -run '^$$' -fuzz '^FuzzParseName$$' -fuzztime 5s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeMatchesOracle$$' -fuzztime 5s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMetadata$$' -fuzztime 5s ./internal/compare
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeF64$$' -fuzztime 5s ./internal/mpi

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke validates the whole-stack benchmark end-to-end (tiny sizes,
# output discarded, ~10 s); part of `make check`. The deterministic tables
# the paper's affordability claims rest on are goldens `go test` holds:
# TestClusteredPipelineMatchesBaseline (internal/stream),
# TestGroupMatchesBaseline and TestCaptureMatchesBaseline
# (internal/compare), TestScaleOutMatchesBaseline (internal/shard).
bench-smoke:
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
LOC_CEILING = 24051
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
