GO ?= go

.PHONY: all vet lint suppressions build test test-slowest race check bench-check bench-core bench-pairs profile chaos

all: check

vet:
	$(GO) vet ./...

# Static invariant enforcement: the chimelint suite — seven per-package
# analyzers (virtualclock, seededrand, verbgate, lockword, dmerrors,
# obsnames, durableio) plus the three interprocedural ones (maporder,
# noalloc, lockorder) riding the call-graph + fact engine — must pass
# with zero findings. staticcheck and govulncheck run when installed (CI
# pins and installs them; the offline dev container may not have them).
lint:
	$(GO) run ./cmd/chimelint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping (CI runs it)"; fi

# Audit every //lint:allow directive in the tree (analyzer, location,
# reason). CI uploads the -json form as a build artifact.
suppressions:
	$(GO) run ./cmd/chimelint -suppressions

build:
	$(GO) build ./...

# -timeout: tier-1 takes about a minute on two cores; a slide back to
# zeroing MN pools took internal/bench alone past 2.5 min (and far longer
# under -race), which the default 10 min would sit through.
test:
	$(GO) test -timeout 5m ./...

# The same run read from `go test -json`, then its five slowest packages
# (seconds, verdict, package): CI's test step, so the suite's next long
# pole is in the log. A failing run is repeated in readable form.
test-slowest:
	$(GO) test -timeout 5m -json ./... > test.json || { $(GO) test -timeout 5m ./...; exit 1; }
	@grep -v '"Test":' test.json | \
		sed -n 's/.*"Action":"\(pass\|fail\)","Package":"\([^"]*\)","Elapsed":\([0-9.]*\).*/\3\t\1\t\2/p' | \
		sort -rn | head -5

# Everything under internal/ runs under the race detector: the verb
# layer, clients, instruments and harness are concurrency-sensitive,
# and the remaining packages (ycsb, hopscotch, nodelayout, rdwc, lease,
# analysis) are cheap enough that sweeping the whole tree costs little.
# -timeout: internal/bench alone takes about 10 min under -race on the
# two-core host (595 s idle, past 600 s beside another build), right at
# go test's default; 20 min leaves it twice that.
race:
	$(GO) test -race -timeout 20m ./internal/dmsim/... ./internal/core/... ./internal/sherman/... \
		./internal/smartidx/... ./internal/rolex/... ./internal/obs/... ./internal/bench/... \
		./internal/fault/... ./internal/locktable/... ./internal/ycsb/... \
		./internal/hopscotch/... ./internal/nodelayout/... ./internal/rdwc/... \
		./internal/lease/... ./internal/analysis/... ./internal/offroute/... \
		./internal/folio/... ./internal/hostmem/... ./internal/nodecache/...
	$(GO) test -race -cpu 1,2 -count=5 -run 'TestHotspotConcurrent' ./internal/core/
	$(GO) test -race -cpu 1,2 -count=5 -run 'TestSearch.*TripCount|TestDepth1' ./internal/core/ ./internal/sherman/
	$(GO) test -race -cpu 1,2,4 -run 'TestScanUnderChurn' ./internal/fault/
	$(GO) test -race -cpu 1,2,4 -count=5 ./internal/rdwc/
	$(GO) test -race -cpu 1,2,4 -count=5 -run 'TestMNReadLineAtomicity|TestStraddlingAtomicVsWrite|TestWriterNotStarvedByReaders' ./internal/dmsim/
	$(GO) test -race -cpu 1,2,4 -count=5 -run 'Wait|Signal|Suspend|Gate|Chain|CrossLane|TestNIC' ./internal/dmsim/

# The seeded chaos suite alone (crash recovery invariants across all
# four systems), under the race detector.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/fault/

# The two-clock benchmark driver is a module of its own (benchmark/go.mod),
# so `go vet/build/test ./...` at the root never see it.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# A performance claim, measured: N alternating parent/change pairs of
# `bash benchmark/run.sh` (pair i on seed i, which side runs first
# alternating), the parent's committed files unpacked under
# .bench_build/pairs/, then the driver's -compare table (medians, both
# sides' spread, verdicts) and per cell the pairs won and whether every
# run of the change beats every run of the parent. REV is required; W
# defaults to every workload (about 35 s per run and side), N to 10.
bench-pairs:
	$(GO) run ./cmd/benchpairs -rev $(REV) -w $(or $(W),all) -n $(or $(N),10)

check: vet lint build test race bench-check

# Index-client micro-benchmarks. Hotspot buffer (record on a full buffer,
# neighbourhood lookup, a search's lookup+record from every thread) on
# one thread and on two: the buffer has one mutex. The node cache's hit
# at the fit budget, CHIME's 16 stripes and the baselines' one, on one
# thread and two. Then a warm point
# search and a warm 50-key scan on one thread: the leaf-image decode and
# whole-leaf validation floor, ns and allocs per simulated op; the same
# search with the caches off, sync (BenchmarkSearchCold) and through
# SearchBatch at depth 8 (BenchmarkSearchBatchCold): the cold descent.
# Then the three baselines on the same shapes — a warm point search, a
# warm update and a warm 50-key scan — whose clients read and write the
# fetched node image where it lies too. Last, the verb under every level
# of a descent: one READ of an internal node, one reader and two (the
# MN's reader counts are striped).
bench-core:
	$(GO) test -run '^$$' -bench Hotspot -benchmem -cpu 1,2 ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkNodeCacheGet -benchmem -cpu 1,2 ./internal/nodecache
	$(GO) test -run '^$$' -bench 'BenchmarkScan|BenchmarkSearch' -benchmem -cpu 1 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkSearch|BenchmarkUpdate|BenchmarkScan' -benchmem -cpu 1 \
		./internal/sherman ./internal/rolex ./internal/smartidx
	$(GO) test -run '^$$' -bench BenchmarkReadNode -benchmem -cpu 1,2 ./internal/dmsim

# Regenerate a committed artifact: `make bench-<id>` for any experiment
# id that has one (pipeline, writepipe, faults, offload, attribution,
# persist, scale; `chime-bench -list`). Every experiment goes through
# the same command — run at -scale small, write the table with -json —
# so the rule is one pattern; the two variables below hold what differs.
# offload and attribution build every point fresh and run it twice (a
# few minutes); scale runs the full 1k-100k client sweep at its own
# sizes, every point twice and bit-identical or the run fails (about a
# minute); attribution also writes its sample timeline.
BENCH_ARGS_scale       := -verify
BENCH_ARGS_attribution := -scale small -timeline-json BENCH_TIMELINE.json
BENCH_JSON_attribution := BENCH_ATTRIB.json
bench-%:
	$(GO) run ./cmd/chime-bench -run $* $(or $(BENCH_ARGS_$*),-scale small) \
		-json $(or $(BENCH_JSON_$*),BENCH_$(shell echo $* | tr a-z A-Z).json)

# CPU-profile the 100k-client capacity point and drop into pprof.
profile:
	$(GO) build -o /tmp/chime-bench ./cmd/chime-bench
	/tmp/chime-bench -run scale -sweep 100000 -cpuprofile scale-cpu.pprof
	$(GO) tool pprof -top -nodecount=25 /tmp/chime-bench scale-cpu.pprof
