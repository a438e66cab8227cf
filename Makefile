GO ?= go

.PHONY: all build test tier1 lint vet-race fuzz-smoke store-smoke flight-smoke fleet-smoke bench bench-guard bench-json bench-layers bench-smoke bench-check loc clean

all: build test

build:
	$(GO) build ./...

# tier1 is the repo's baseline gate: everything must build, vet clean, and
# pass — including the differential-oracle suite under the race detector
# (the concurrent pipeline leg is the racy surface; the oracle shrinks its
# workload automatically under -race via the raceEnabled build tag).
tier1: build store-smoke flight-smoke fleet-smoke bench-smoke bench-check lint
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -run 'TestDifferential' ./internal/oracle/... ./internal/pipeline/...

test: tier1

# bench-check compiles and smoke-tests the repository benchmark. bench/ is
# a module of its own that imports internal/*, so `go build ./...` and
# `go test ./...` at the root never see it; without this gate an internal
# signature change breaks BENCHMARK.json's command silently.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# lint fails on any file gofmt would change, then runs imvet, the repo's
# domain-specific static-analysis gate (cmd/imvet + internal/analysis):
# five analyzers — hot-path allocation discipline (hotalloc), store/export
# error checking (errclose), wall-clock bans in the deterministic packages
# (wallclock), lock-scope discipline (locksafe: no dynamic calls /
# blocking I/O / channel sends under a mutex, cross-package lock-order
# cycles, typed atomics only), and wire-derived length bounds in decode
# paths (wirebound). Exits non-zero with file:line:col diagnostics on any
# violation. The single hash per packet, the seqlock and the SPSC ring are
# witnessed by tests instead (see vet-race).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/imvet ./...

# store-smoke is the epoch-store drill: meter a trace into a store, tear
# the tail segment mid-record (a simulated kill -9), reopen, and query —
# top-k, timeline, changers, and the JSON API must all answer from what
# survived. Crash-recovery and the store/live differential ride along.
store-smoke:
	$(GO) test ./internal/store/ -run 'TestStoreSmoke|TestCrashRecovery' -count=1
	$(GO) test ./internal/oracle/ -run 'TestStoreDifferential' -count=1

# flight-smoke is the flight-recorder drill: a live exporter→collector→
# store run with the always-on recorder, after which /debug/flight must
# reconstruct the epoch's complete cut→encode→send→receive→commit
# timeline. The concurrent scrape test rides along under the race
# detector — the metrics/flight/health surface is lock-free by contract.
flight-smoke:
	$(GO) test -race -run 'TestFlightSmoke|TestConcurrentTelemetryServer' -count=1 .

# fleet-smoke is the fleet-mode drill: two meters with distinct site IDs
# export over TCP to one collector running the network-wide aggregator;
# the merged top-k must recover the oracle union and the DDoS-victim
# detector must name the flood's victim exactly once (hysteresis) while
# the benign site stays silent. The multi-exporter collector stress test
# and the slow-sink liveness regression ride along — the whole surface
# runs under the race detector.
fleet-smoke:
	$(GO) test -race -run 'TestFleetSmoke|TestFleetSilentOnBenign' -count=1 .
	$(GO) test -race -run 'TestMultiExporterStress|TestDetectionThroughIngest' -count=1 ./internal/fleet/
	$(GO) test -race -run 'TestCollectorSlowSinkDoesNotBlockQueries|TestCollectorHookSeesSite' -count=1 ./internal/export/

# vet-race is the concurrency gate: static checks plus every package
# with a locked or lock-free concurrent surface under the race detector —
# telemetry (lock-free counters), pipeline (SPSC rings: TestRingConcurrentStress
# is the ring protocol's witness; drop-when-full exchange, ring probes,
# the single hash per packet across the rings), flight (seqlock recorder:
# TestConcurrentRecordAndSnapshot is the torn-read witness), export (exporter send
# path + collector callback seams), fleet (aggregator/detector callbacks),
# store (WAL lock scope), and trace (ground truth built on first use, from
# whichever goroutine asks first; the shared source the pipeline's workers
# take turns on) — plus the root package's concurrent surface: heavy-hitter
# callbacks firing on four workers at once, and the epoch-bounded runs
# (consecutive Runs over one meter, striped and shared).
vet-race: lint
	$(GO) vet ./...
	$(GO) test -race ./internal/telemetry/... ./internal/pipeline/... ./internal/flight/... ./internal/export/... ./internal/fleet/... ./internal/store/... ./internal/trace/...
	$(GO) test -race -run 'TestHeavyHitterOncePerFlowOnWorkers|TestConsecutiveRunsMatchOneRun|TestPushRoutesToOwner' .

# fuzz-smoke gives each native fuzz target a short budget against its
# committed seed corpus (testdata/fuzz/). go test accepts one -fuzz
# pattern per invocation, so the targets run in sequence.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/packet/ -fuzz '^FuzzParseEthernet$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/packet/ -fuzz '^FuzzParseIP$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/pcap/ -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/trace/ -fuzz '^FuzzSplitConservation$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/trace/ -fuzz '^FuzzReadPcap$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/export/ -fuzz '^FuzzReadBatch$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/export/ -fuzz '^FuzzReadSnapshotStats$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/export/ -fuzz '^FuzzFleetFrame$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/store/ -fuzz '^FuzzStoreSegment$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/core/ -fuzz '^FuzzEachMatchesMapMerge$$' -fuzztime $(FUZZTIME) -run '^$$'

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# bench-guard asserts (a) the always-on hot-path instrumentation stays
# within ~3% of the uninstrumented per-packet loop, (b) a windowed top-k
# over a 1M-record epoch store answers through the JSON endpoint in under
# 50 ms, (c) the memmodel prefetch speedup agrees with the measured
# scalar-vs-batched WSAF delta, and (d) the hot-cache speedup model agrees
# with the measured cached-vs-uncached ProcessBatch ratio (agreement only:
# whether the cache wins on speed is reported, not required).
# Benchmark-based, so opt-in rather than part of tier1.
bench-guard:
	INSTAMEASURE_BENCH_GUARD=1 $(GO) test -run TestProcessTelemetryOverhead -v ./internal/core/
	INSTAMEASURE_BENCH_GUARD=1 $(GO) test -run TestStoreTopKGuard -v ./internal/store/
	INSTAMEASURE_BENCH_GUARD=1 $(GO) test -run TestPrefetchModelCrossCheck -v ./internal/memmodel/
	INSTAMEASURE_BENCH_GUARD=1 $(GO) test -run TestHotCacheModelCrossCheck -v ./internal/memmodel/

# bench-json archives the hot-path suite — the Fig. 9 throughput benchmark
# plus the per-component microbenchmarks — as BENCH_hotpath.json
# (name -> ns/op, allocs/op, Mpps) via cmd/benchjson. When the file already
# exists, its numbers carry over into the "baseline" section, so the
# document always records a before/after pair across a change. -guard gates
# the archive itself: it fails on a >10% Mpps drop against the previous
# archived numbers or scaling efficiency below 0.6 — full-benchtime
# max-estimator runs are comparable at that band.
BENCH_HOTPATH = Fig9aCores|PipelineScaling|EncodePerPacket|ProcessBatchPerPacket|ProcessBatchCachedPerPacket|RCCLocate|RCCEncode|FlowRegulatorProcess|WSAFAccumulate|FlowKeyHash
bench-json:
	$(GO) test -bench '$(BENCH_HOTPATH)' -benchmem -run '^$$' . | \
		$(GO) run ./cmd/benchjson -guard -o BENCH_hotpath.json \
		$$(test -f BENCH_hotpath.json && echo -baseline BENCH_hotpath.json)

# bench-layers archives the per-layer microbenchmarks around the meter as
# BENCH_layers.json, rows of ROADMAP's layered ledger: before it, the path
# a packet takes — pcap record read, frame parse, and the whole
# materialised ReadPcap, one frame per op; after it, the cut and the query
# — table snapshot, engine top-1k and snapshot export on a 2^20-slot table
# at ~0.3 % and ~3 % load, one whole walk per op (their Mpps is live
# entries visited per second); and past the meter, the control plane on
# the epoch_fleet shape (bench_collect_test.go) — the exporter's frame
# encode, a frame through a bare collector (CollectorServe, the fleet
# tier's) and through a delegation collector's additive merge
# (CollectorMerge), the store's append, fleet ingest and its DDoS
# detector's share (StreamObserve; StreamObserveBusy without the per-op
# window rotation, so groups sit past the estimate floor), the store's
# windowed top-k and heavy changers over 80 000 flows
# (Mpps is records or ranked flows per second), and one flow-table upsert
# at 80 000 flows (scalar) and at 2^20 (FlowtableUpsert1M: beyond what the
# 80 000-flow rows leave in cache, so each probe is a DRAM miss — the case
# the collection tier's prefetched bursts exist for; the row runs the burst
# path, its baseline the same keys through scalar Upsert on its parent).
# Baseline handling and -guard are
# bench-json's: the archived baseline section (each row measured on the
# parent commit of the PR that added it, on the same host) carries over,
# and a >10% Mpps drop against it fails the target. Each row runs three
# times and benchjson archives and guards the median run, so one run
# slowed by a neighbour on a shared host neither fails the gate nor
# lands in the archive.
BENCH_LAYERS = PcapRead|ParseEthernet|ReadPcap|WSAFSnapshotSparse|EngineTopK1k|ExportSnapshot|ExportBatch|CollectorServe|CollectorMerge|StoreAppend80k|FleetIngest|StreamObserve|StreamObserveBusy|StoreTopK80k|StoreHeavyChangers80k|FlowtableUpsert|FlowtableUpsert1M
bench-layers:
	$(GO) test -bench '^Benchmark($(BENCH_LAYERS))$$' -benchmem -count 3 -run '^$$' . | \
		$(GO) run ./cmd/benchjson -guard -o BENCH_layers.json \
		$$(test -f BENCH_layers.json && echo -baseline BENCH_layers.json)

# bench-smoke is the multicore-scaling drill in tier1: a short run of the
# shared-nothing scaling benchmark gated by cmd/benchjson -guard against
# the previous smoke run. The band is wider than bench-json's 10% because a
# 2-iteration run on shared vCPUs carries ~25% steal-time noise (measured);
# the smoke gate exists to catch architecture-level regressions — losing
# the shared-nothing scaling shows up as a multiple-of-workers drop in
# aggregate Mpps and a collapse of scaling efficiency, both far outside
# these bands. The efficiency floor holds only rows with no more workers
# than GOMAXPROCS (w8 on a 2-core host shares cores: its row is archived
# and printed, not gated). Output is scratch (gitignored); the strict
# before/after record is bench-json's BENCH_hotpath.json.
bench-smoke:
	@mkdir -p .bench
	$(GO) test -bench 'PipelineScaling' -benchtime 2x -run '^$$' . | \
		$(GO) run ./cmd/benchjson -guard -mpps-drop 0.35 -eff-floor 0.55 \
		-o .bench/smoke.json \
		$$(test -f .bench/smoke.json && echo -baseline .bench/smoke.json)

# loc prints non-test Go lines per package directory of the root module
# (bench/ is a module of its own; analyzer fixtures count, folded into one
# testdata row) and their total — the table every PR pastes into
# CHANGES.md next to its line budget.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/\/testdata\/.*/, "/testdata", d); n[d] += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d }' | \
		sort -k2,2 | awk '{ print; t += $$1 } END { printf "%6d total\n", t }'

clean:
	$(GO) clean ./...
