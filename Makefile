GO ?= go

.PHONY: build test test-shuffle race vet vet-perfbench vuln bench bench-check cover fuzz ci inspect-demo profile apidiff serve-smoke results

# Seconds of fuzzing per target in `make fuzz` (kept short for CI).
FUZZTIME ?= 10s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Regenerate the reports committed under results/ (results/README.md lists
# the command behind each); TestCommittedOutputs compares them otherwise.
# Run it only for a change meant to move a reported number, and say why in
# CHANGES.md.
results:
	$(GO) test -count=1 -run '^TestCommittedOutputs$$' . -update-results

# perfbench/ is a nested module, so ./... above never compiles it; it calls
# internal names that a deletion can break while the root module stays
# green. From internal/trace: Access, Header, Copy, NewWriterOptions,
# WriterOptions (with its Version field), OpenFileParallelCache,
# NewSegmentCache, SegmentCache, DefaultTraceCacheBytes, DemuxParallel,
# ShardBatch, NewSliceSource and the batch-pool helpers GetBatch, PutBatch
# and FillBatch. From internal/telemetry: RunStats.DemuxStallNs. From
# internal/sim: Options (with its Context, Nodes, Seed and Parallelism
# fields), App, PrepareApp, Table2Apps, Table3Apps, Table2CacheSizes,
# RunDirectoryCell, Sweep.Options.Policies, Sweep.Render, Run, RunConfig,
# RunResult, PageSize and the Engine* names.
vet-perfbench:
	cd perfbench && $(GO) vet ./...

# Regenerates every experiment benchmark once (with allocation stats); the
# parallel-sweep benchmarks also refresh results/bench_sweep.json.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# Re-measure the key hot-loop benchmarks and compare their rows in
# results/bench_sweep.json against the committed baseline
# (results/bench_baseline.json), failing on regression beyond tolerance.
# The benchmarks refresh the sweep file as a side effect of running.
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkBatchedTable2|BenchmarkBatchedBus|BenchmarkProbeOverhead|BenchmarkShardedTable2|BenchmarkParallelDecodeMTR|BenchmarkTelemetryOverhead|BenchmarkSegmentCacheSweep|BenchmarkCohdHotTrace' -benchtime 10x -benchmem .
	$(GO) run ./cmd/benchcheck

# Known-vulnerability scan of the module and its (stdlib-only) dependency
# graph. Uses govulncheck when it is already on PATH — the target does not
# install anything; CI installs the tool in its own step.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (CI runs it)"; \
	fi

# Short fuzz pass over every fuzz target; go test allows one -fuzz pattern
# per invocation, so each target gets its own run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDirectoryProtocols$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSnoopProtocols$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzTraceCodec$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzMTRRoundTrip$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzMTRDecode$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzBatchBoundary$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzShardDemux$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentIndex$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentCacheKey$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCacheAgainstReference$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzEvictionFreeBound$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSilentFold$$' -fuzztime $(FUZZTIME) .

# Exported-API compatibility gate: compares the root package against
# APIDIFF_BASE (default HEAD~1) with golang.org/x/exp/cmd/apidiff, failing
# on incompatible changes not listed in scripts/apidiff_allowlist.txt.
# Skips with a notice when apidiff is not on PATH (CI installs it).
apidiff:
	./scripts/apidiff.sh

# End-to-end service smoke: boots the real cohd binary, fires 50 concurrent
# submissions at a 4-deep queue (expecting 429 overflow and zero failed
# admitted runs), checks cache hits, goroutine stability, and a clean
# SIGTERM drain.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/cohd

# Shuffled test order surfaces inter-test state leaks (shared caches,
# leftover telemetry registrations); CI runs the suite this way.
test-shuffle:
	$(GO) test -shuffle=on ./...

# Coverage profile plus a per-function summary; CI uploads the directory
# as a build artifact. The last line printed is the total.
COVER_DIR ?= results/coverage
cover:
	mkdir -p $(COVER_DIR)
	$(GO) test -coverprofile=$(COVER_DIR)/coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=$(COVER_DIR)/coverage.out > $(COVER_DIR)/coverage.txt
	@tail -n 1 $(COVER_DIR)/coverage.txt

ci: build vet vet-perfbench test-shuffle race

# Profile the benchmark's paper-eval op (BENCHMARK.json): the full cmd/paper
# evaluation on every CPU, unsharded, under the CPU and heap profilers.
# Prints the top CPU consumers, then the top allocation sites by bytes
# allocated over the run. Open the .pprof files with
# `go tool pprof -http=:8080 $(PROFILE_DIR)/paper <file>` for flame graphs.
PROFILE_DIR ?= /tmp/migratory-profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/paper ./cmd/paper
	$(PROFILE_DIR)/paper -parallelism $$(nproc) -shards 1 -progress off \
		-manifest-dir $(PROFILE_DIR) \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof \
		-memprofile $(PROFILE_DIR)/mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/paper $(PROFILE_DIR)/cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space $(PROFILE_DIR)/paper $(PROFILE_DIR)/mem.pprof

# End-to-end observability demo: generate a short MP3D trace, replay it
# under the basic protocol with the inspector attached, and export the
# event stream for Perfetto (ui.perfetto.dev) alongside the JSONL form.
inspect-demo:
	$(GO) run ./cmd/tracegen -app MP3D -length 20000 -o /tmp/mp3d.mtr
	$(GO) run ./cmd/inspect -trace /tmp/mp3d.mtr -variant basic \
		-kinds classify,declassify,migration -max 25 \
		-jsonl /tmp/mp3d-events.jsonl -perfetto /tmp/mp3d-trace.json
