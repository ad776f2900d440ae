// Package migratory is a library reproduction of "Adaptive Cache Coherency
// for Detecting Migratory Shared Data" (Cox & Fowler, ISCA 1993).
//
// The paper observes that a large share of shared data in parallel programs
// is migratory — read and written by one processor at a time, moving from
// processor to processor — and that a write-invalidate protocol can halve
// the coherence traffic for such data by detecting the pattern on line and
// switching the affected blocks from replicate-on-read-miss to
// migrate-on-read-miss. This module implements:
//
//   - the migratory classification engine of the paper's Figure 3, with the
//     conservative, basic, and aggressive policy variants of §4.1 plus the
//     conventional baseline;
//   - a directory-based CC-NUMA protocol simulator with the Table 1
//     inter-node message cost model, set-associative caches, and page
//     placement policies;
//   - the adaptive snooping bus protocol of Figures 1 and 2 (an extended
//     MESI with Shared-2, Migratory-Clean, and Migratory-Dirty states),
//     alongside conventional MESI and a Sequent-Symmetry-style baseline;
//   - synthetic SPLASH-like workload generators standing in for the paper's
//     Tango traces of Cholesky, LocusRoute, MP3D, Pthor, and Water;
//   - a DASH-like timing model reproducing the §4.2 execution-time study;
//   - sweep drivers that regenerate the paper's Table 2, Table 3, cost-ratio
//     analysis, and bus results, fanning independent simulation cells out
//     across a worker pool (ExperimentOptions.Parallelism; 0 = all CPUs).
//     Parallel runs are bit-identical to sequential ones: every cell
//     simulates a private system over a shared read-only trace and results
//     are assembled in paper order.
//
// The quickest way in is the unified Run entry point — one declarative
// config selects the engine, the trace, and the variant, with zero values
// meaning the paper's defaults:
//
//	res, _ := migratory.Run(ctx, migratory.RunConfig{
//	    Engine:   migratory.EngineDirectory,
//	    Workload: "MP3D",
//	    Policy:   "aggressive",
//	})
//	fmt.Println(res.Directory.Msgs)
//
// RunConfig.Validate rejects a bad config with the same typed sentinels
// every surface shares (ErrUnknownEngine, ErrUnknownPolicy,
// ErrUnknownProtocol, ErrUnknownProfile, ErrUnknownPlacement, …), and
// equal results marshal to equal JSON bytes, which is what makes them
// cacheable by content hash (RunConfig.Digest — the basis of cmd/cohd,
// the coherence-as-a-service daemon serving this same API over HTTP with
// admission control and a result cache). The engines stay directly
// constructible for finer control:
//
//	accs, _ := migratory.GenerateWorkload("MP3D", 16, 1, 100000)
//	sys, _ := migratory.NewDirectorySystem(migratory.DirectoryConfig{
//	    Nodes:     16,
//	    Geometry:  migratory.MustGeometry(16, 4096),
//	    Policy:    migratory.Aggressive,
//	    Placement: migratory.RoundRobinPlacement(16),
//	})
//	_ = sys.Run(accs)
//	fmt.Println(sys.Messages())
//
// # Observability
//
// Both protocol engines can emit a typed stream of coherence events —
// state transitions, classification flips with the access that triggered
// them, migrations, invalidations, write-backs, message charges — through
// a Probe attached to the system config. A nil probe costs one pointer
// test per emission site. MetricsProbe aggregates the stream into
// per-node and per-block counters plus histograms of migration run length
// and classification latency, and its message totals exactly reconcile
// with the engines' cost accounting; NewJSONLProbe streams events as JSON
// lines and NewTraceEventProbe writes a Chrome trace_event file that
// opens in Perfetto. Probes compose with MultiProbe, filter with
// FilterProbe, and instrument whole sweeps via ExperimentOptions.Probes
// (one probe per cell, merged deterministically with MergeMetrics). To
// watch a protocol work:
//
//	mp := &migratory.MetricsProbe{}
//	sys, _ := migratory.NewDirectorySystem(migratory.DirectoryConfig{
//	    Nodes: 16, Geometry: geom, Policy: migratory.Basic,
//	    Placement: pl, Probe: mp,
//	})
//	_ = sys.Run(accs)
//	mp.Finish()
//	mp.RenderNodes().Render(os.Stdout)
//
// The cmd/inspect CLI wraps all of this: it replays a trace under any
// variant, prints and filters the event stream, reports the hottest
// blocks, and exports JSONL or Perfetto traces.
//
// # Runtime telemetry
//
// Orthogonal to the per-event probes, a RunStats counter block gives live,
// near-zero-cost visibility into a running simulation: engines push
// accesses, batches, classifier transitions, and migrations at batch
// granularity (one update per 4096 accesses), the set-sharded demux
// producer accounts per-shard queue depth and the time it spends blocked
// on a full shard queue, and the sweep
// drivers track cell progress for ETA estimation. Attach one through
// ExperimentOptions.Stats, DirectoryConfig.Stats, or BusConfig.Stats —
// when left nil the hot path pays a single pointer test per batch. A
// TelemetrySampler turns the counters into periodic TelemetrySample
// snapshots (instantaneous and cumulative throughput, batch fill, heap and
// GC state), StartTelemetryServer exposes them over HTTP as Prometheus
// text (/metrics), JSON (/status), expvar, and pprof, and RunManifest
// records each run's exact configuration and outcome as an atomically
// written JSON artifact (WriteRunManifest, WriteFileAtomic). Every CLI in
// cmd/ wires these behind the shared -telemetry-addr, -log-level,
// -log-format, -manifest-dir, and -progress flags.
//
// # Streaming traces
//
// Every consumer of a trace also accepts a TraceSource — a pull-based,
// re-openable stream (Next until io.EOF, Reset to rewind, Close when
// done) — so traces never have to be materialized. Sources come from
// NewSliceTraceSource (in-memory), NewGeneratorSource (lazy synthetic
// workload, bit-identical to GenerateWorkload), or OpenTraceFile (the
// compact varint-delta ".mtr" binary format written by NewTraceWriter and
// cmd/tracegen; the legacy fixed-record format is still readable).
// NewTraceWriter now emits an indexed v3 by default: the stream is cut
// into independently decodable segments and a footer index lets
// OpenIndexedTraceFile / NewIndexedTraceSource decode segments on several
// workers (RunConfig.Decoders, the shared -decoders flag, fixed when the
// file is opened) while reassembling the exact sequential stream. Sharded
// runs read that stream like any other: one demux producer routes it into
// per-shard queues while the decode workers run ahead.
// Opening a v1/v2 trace through the indexed path reports ErrTraceNoIndex.
// A process-wide decoded-segment cache (NewTraceSegmentCache, threaded via
// RunConfig.Cache or OpenIndexedTraceFileCache, sized by the shared
// -trace-cache-bytes flag) lets sweeps and cohd decode each indexed trace
// once and replay it many times from immutable ref-counted slabs — keyed
// by file identity so rewritten files never serve stale data, bounded by
// LRU eviction, and observable through TraceCacheStats (Stats, /metrics,
// run manifests). Like Decoders it cannot change a result: cached replay
// is bit-identical and plays no part in RunConfig.Digest.
// Run streams whichever source the config names and honors cancellation;
// callers managing their own sources build an engine (NewDirectorySystem,
// NewBusSystem) and call its RunSource, and AnalyzeTraceSource and
// ClassifyBlocksSource are the analysis twins.
// ExperimentOptions.Context threads a context through every sweep driver
// and ExperimentOptions.Stream makes the sweeps regenerate workloads
// lazily per cell, keeping sweep memory constant in the trace length.
// Failures are matchable with errors.Is against the exported sentinels
// (ErrUnknownPolicy, ErrUnknownProfile, ErrUnknownEventKind,
// ErrBadGeometry, ErrTraceTruncated, ErrTraceCorrupt, ErrTraceBadMagic,
// ErrTraceNoIndex).
//
// The cmd/ directory holds CLIs that regenerate each of the paper's tables
// and figures; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for measured-versus-published results.
package migratory
