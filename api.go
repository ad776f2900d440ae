package migratory

import (
	"context"
	"io"
	"os"
	"time"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/timing"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// Addressing and machine geometry.
type (
	// Addr is a byte address in the simulated shared address space.
	Addr = memory.Addr
	// BlockID identifies a cache block under a Geometry.
	BlockID = memory.BlockID
	// PageID identifies a 4 KB page.
	PageID = memory.PageID
	// NodeID identifies a processing node.
	NodeID = memory.NodeID
	// Geometry fixes block and page sizes.
	Geometry = memory.Geometry
)

// NewGeometry returns a Geometry for the given block and page sizes.
func NewGeometry(blockSize, pageSize int) (Geometry, error) {
	return memory.NewGeometry(blockSize, pageSize)
}

// MustGeometry is NewGeometry that panics on error.
func MustGeometry(blockSize, pageSize int) Geometry {
	return memory.MustGeometry(blockSize, pageSize)
}

// Traces.
type (
	// Access is one shared-memory reference by one node.
	Access = trace.Access
	// AccessKind distinguishes reads from writes.
	AccessKind = trace.Kind
	// TraceStats summarizes a trace, including an off-line sharing-pattern
	// census.
	TraceStats = trace.Stats
)

// Access kinds.
const (
	Read  = trace.Read
	Write = trace.Write
)

// AnalyzeTrace computes summary statistics for a trace.
func AnalyzeTrace(accs []Access, geom Geometry) TraceStats {
	return trace.Analyze(accs, geom)
}

// BlockPattern is the off-line classification of one block's sharing
// pattern over a whole trace.
type BlockPattern = trace.BlockPattern

// Off-line block sharing patterns.
const (
	PatternPrivate    = trace.PatternPrivate
	PatternReadShared = trace.PatternReadShared
	PatternMigratory  = trace.PatternMigratory
	PatternOther      = trace.PatternOther
)

// ClassifyBlocks returns every touched block's off-line sharing pattern:
// the oracle view against which the on-line protocols are judged.
func ClassifyBlocks(accs []Access, geom Geometry) map[BlockID]BlockPattern {
	return trace.ClassifyBlocks(accs, geom)
}

// MigratoryOracle builds a DirectoryConfig.MigratoryOracle from the
// off-line classification of a trace: read misses to blocks that behave
// migratory over the whole trace are issued as read-with-ownership
// operations (§5's "load with intent to modify").
func MigratoryOracle(accs []Access, geom Geometry) func(BlockID) bool {
	patterns := trace.ClassifyBlocks(accs, geom)
	return func(b BlockID) bool { return patterns[b] == trace.PatternMigratory }
}

// Protocol policies (§4.1).
type Policy = core.Policy

// The four protocols the paper evaluates.
var (
	// Conventional is the replicate-on-read-miss baseline.
	Conventional = core.Conventional
	// Conservative requires two successive migratory events (Figure 3).
	Conservative = core.Conservative
	// Basic classifies after a single event.
	Basic = core.Basic
	// Aggressive starts blocks as migratory and reclassifies immediately.
	Aggressive = core.Aggressive
)

// Stenstrom is the related-work protocol of Stenström, Brorsson & Sandberg
// (§5): Basic's classification rule, but declassifying on any write miss to
// a migratory block.
var Stenstrom = core.Stenstrom

// Policies returns the four published protocols in table order.
func Policies() []Policy { return core.Policies() }

// PolicyByName looks a policy up by name ("conventional", "basic", ...).
func PolicyByName(name string) (Policy, error) { return core.PolicyByName(name) }

// Message accounting (Table 1).
type (
	// Msgs counts short and data-carrying inter-node messages.
	Msgs = cost.Msgs
	// CostOp classifies a coherence operation for message accounting.
	CostOp = cost.Op
)

// MessageCost returns the Table 1 message counts for one operation.
func MessageCost(op CostOp, homeLocal, dirty bool, distantCopies int) Msgs {
	return cost.Charge(op, homeLocal, dirty, distantCopies)
}

// Reduction returns the percentage total-message reduction of with versus
// base.
func Reduction(base, with Msgs) float64 { return cost.Reduction(base, with) }

// Directory-based simulation (§2.2, §3.3).
type (
	// DirectoryConfig describes one CC-NUMA machine.
	DirectoryConfig = directory.Config
	// DirectorySystem simulates one machine running one protocol.
	DirectorySystem = directory.System
	// DirectoryCounters tallies protocol activity.
	DirectoryCounters = directory.Counters
)

// NewDirectorySystem builds a directory-based simulator.
func NewDirectorySystem(cfg DirectoryConfig) (*DirectorySystem, error) {
	return directory.New(cfg)
}

// ShardedDirectorySystem runs one directory protocol over one trace on
// several engine shards in parallel, partitioned by cache-set index;
// counters, histograms, and classifier verdicts merge bit-identical to a
// sequential run.
type ShardedDirectorySystem = directory.Sharded

// NewShardedDirectorySystem builds a set-sharded directory simulator of
// shards engine instances (a positive power of two, at most the per-cache
// set count for finite caches). cfg.Probe must be nil; pass per-shard
// probes via the probes factory (which may be nil) and merge MetricsProbes
// with MergeMetrics afterwards.
func NewShardedDirectorySystem(cfg DirectoryConfig, shards int, probes func(int) Probe) (*ShardedDirectorySystem, error) {
	return directory.NewSharded(cfg, shards, probes)
}

// MaxDirectoryShards returns the largest usable shard count for a finite
// per-node cache (0 for infinite caches, meaning no limit).
func MaxDirectoryShards(cacheBytes, blockSize, assoc int) int {
	return directory.MaxShards(cacheBytes, blockSize, assoc)
}

// Page placement (§3.3).
type PlacementPolicy = placement.Policy

// RoundRobinPlacement assigns page p to node p mod nodes (the execution-
// driven default).
func RoundRobinPlacement(nodes int) PlacementPolicy { return placement.NewRoundRobin(nodes) }

// UsageBasedPlacement profiles the trace and homes each page at its
// most-frequent referencer (the trace-driven "good static placement").
func UsageBasedPlacement(accs []Access, geom Geometry, nodes int) PlacementPolicy {
	return placement.UsageBased(accs, geom, nodes)
}

// FirstTouchPlacement homes each page at the first node to reference it.
func FirstTouchPlacement(accs []Access, geom Geometry, nodes int) PlacementPolicy {
	return placement.FirstTouch(accs, geom, nodes)
}

// Snooping bus simulation (§2.1, §4.3).
type (
	// BusConfig describes one bus-based machine.
	BusConfig = snoop.Config
	// BusSystem simulates one bus-based machine.
	BusSystem = snoop.System
	// BusProtocol selects the snooping protocol variant.
	BusProtocol = snoop.Protocol
	// BusCounts tallies bus transactions by type.
	BusCounts = snoop.Counts
)

// Snooping protocol variants.
const (
	// BusMESI is the conventional MESI baseline.
	BusMESI = snoop.MESI
	// BusAdaptive is the Figure 1/2 adaptive protocol.
	BusAdaptive = snoop.Adaptive
	// BusAdaptiveMigrateFirst uses migrate-on-read-miss as the initial
	// policy.
	BusAdaptiveMigrateFirst = snoop.AdaptiveMigrateFirst
	// BusSymmetry is the non-adaptive Sequent Symmetry model B policy.
	BusSymmetry = snoop.Symmetry
	// BusUpdateOnce is the Alpha-style hybrid update/invalidate protocol
	// of §5, which takes three inter-cache operations per migration.
	BusUpdateOnce = snoop.UpdateOnce
	// BusBerkeley is the Berkeley Ownership protocol (paper ref [12]):
	// dirty cache-to-cache sharing with an Owned state.
	BusBerkeley = snoop.Berkeley
)

// NewBusSystem builds a snooping bus simulator.
func NewBusSystem(cfg BusConfig) (*BusSystem, error) { return snoop.New(cfg) }

// ShardedBusSystem runs one snooping protocol over one trace on several
// engine shards in parallel, partitioned by cache-set index, with counts
// bit-identical to a sequential run.
type ShardedBusSystem = snoop.Sharded

// NewShardedBusSystem builds a set-sharded bus simulator; the constraints
// match NewShardedDirectorySystem.
func NewShardedBusSystem(cfg BusConfig, shards int, probes func(int) Probe) (*ShardedBusSystem, error) {
	return snoop.NewSharded(cfg, shards, probes)
}

// Workloads (the SPLASH substitution of DESIGN.md §4).
type (
	// WorkloadProfile describes one application.
	WorkloadProfile = workload.Profile
	// WorkloadSegment describes one homogeneous region of shared data.
	WorkloadSegment = workload.Segment
	// SharingKind classifies a segment's sharing idiom.
	SharingKind = workload.Kind
)

// Sharing idioms.
const (
	Migratory        = workload.Migratory
	ReadShared       = workload.ReadShared
	ProducerConsumer = workload.ProducerConsumer
	MostlyPrivate    = workload.MostlyPrivate
)

// WorkloadProfiles returns the five SPLASH-like application profiles.
func WorkloadProfiles() []WorkloadProfile { return workload.Profiles() }

// WorkloadByName looks a profile up ("Cholesky", "Locus Route", "MP3D",
// "Pthor", "Water").
func WorkloadByName(name string) (WorkloadProfile, error) { return workload.ProfileByName(name) }

// GenerateWorkload produces a deterministic trace for the named profile.
// length of 0 uses the profile's default.
func GenerateWorkload(name string, nodes int, seed int64, length int) ([]Access, error) {
	p, err := workload.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, nodes, seed, length)
}

// GenerateFromProfile produces a trace for a caller-defined profile.
func GenerateFromProfile(p WorkloadProfile, nodes int, seed int64, length int) ([]Access, error) {
	return workload.Generate(p, nodes, seed, length)
}

// ScaleWorkload scales a profile's data-set size (object counts and default
// trace length) by factor, modeling inputs larger or smaller than the
// paper's standard ones.
func ScaleWorkload(p WorkloadProfile, factor float64) (WorkloadProfile, error) {
	return workload.Scale(p, factor)
}

// Experiment drivers (§4).
type (
	// ExperimentOptions configures a sweep. Its Parallelism field bounds
	// the worker pool the sweep drivers fan independent simulation cells
	// out on (0 = all CPUs, 1 = sequential), and its Shards field splits
	// each untimed simulation cell across per-set engine shards (1 =
	// sequential, -1 = all CPUs); results are bit-identical regardless of
	// either setting.
	ExperimentOptions = sim.Options
	// Sweep holds a directory-protocol sweep (Tables 2 and 3).
	Sweep = sim.Sweep
	// BusSweep holds the §4.3 bus comparison.
	BusSweep = sim.BusSweep
	// ExecRow is one §4.2 execution-time comparison.
	ExecRow = sim.ExecRow
)

// Table2 regenerates the paper's Table 2 (message counts by cache size).
func Table2(opts ExperimentOptions) (*Sweep, error) { return sim.Table2(opts) }

// Table3 regenerates Table 3 (message counts by block size, infinite
// caches).
func Table3(opts ExperimentOptions) (*Sweep, error) { return sim.Table3(opts) }

// BusComparison regenerates the §4.3 bus results.
func BusComparison(opts ExperimentOptions, cacheSizes []int, protocols []BusProtocol) (*BusSweep, error) {
	return sim.RunBus(opts, cacheSizes, protocols)
}

// ExecutionTime regenerates the §4.2 execution-driven comparison.
func ExecutionTime(opts ExperimentOptions, policy Policy, cacheBytes int) ([]ExecRow, error) {
	return sim.ExecutionTime(opts, policy, cacheBytes)
}

// DetectionAccuracy is one protocol's on-line-vs-off-line classification
// score.
type DetectionAccuracy = sim.Accuracy

// ClassifierAccuracy scores each adaptive protocol's migratory detection
// on one application against the off-line ground truth.
func ClassifierAccuracy(app string, opts ExperimentOptions, cacheBytes int) ([]DetectionAccuracy, error) {
	return sim.ClassifierAccuracy(app, opts, cacheBytes)
}

// NodeCountRow is one machine-size point of the scalability sweep.
type NodeCountRow = sim.NodeCountRow

// NodeCountSweep measures how the message reduction scales with machine
// size (nil nodeCounts = 4, 8, 16, 32, 64).
func NodeCountSweep(app string, nodeCounts []int, opts ExperimentOptions) ([]NodeCountRow, error) {
	return sim.NodeCountSweep(app, nodeCounts, opts)
}

// Observability (internal/obs): a typed coherence event stream emitted by
// both protocol engines, consumed by composable probes.
type (
	// Probe consumes coherence events (attach via DirectoryConfig.Probe,
	// BusConfig.Probe, or ExperimentOptions.Probes).
	Probe = obs.Probe
	// CoherenceEvent is one typed coherence event.
	CoherenceEvent = obs.Event
	// EventKind enumerates coherence event types.
	EventKind = obs.Kind
	// EventFilter selects a subset of the event stream.
	EventFilter = obs.Filter
	// FilterProbe forwards matching events to an inner probe.
	FilterProbe = obs.FilterProbe
	// FuncProbe adapts a function to the Probe interface.
	FuncProbe = obs.FuncProbe
	// MultiProbe fans events out to several probes.
	MultiProbe = obs.MultiProbe
	// MetricsProbe aggregates per-node/per-block counters and histograms.
	MetricsProbe = obs.MetricsProbe
	// EventCounters is one node's or block's event tally.
	EventCounters = obs.Counters
	// EventHistogram is a power-of-two-bucketed distribution.
	EventHistogram = obs.Histogram
	// JSONLProbe streams events as JSON lines.
	JSONLProbe = obs.JSONLProbe
	// TraceEventProbe exports Chrome trace_event JSON for Perfetto.
	TraceEventProbe = obs.TraceEventProbe
)

// Coherence event kinds.
const (
	EventState        = obs.KindState
	EventEvidence     = obs.KindEvidence
	EventClassify     = obs.KindClassify
	EventDeclassify   = obs.KindDeclassify
	EventMigration    = obs.KindMigration
	EventReplication  = obs.KindReplication
	EventInvalidation = obs.KindInvalidation
	EventWriteBack    = obs.KindWriteBack
	EventCleanDrop    = obs.KindCleanDrop
	EventMessage      = obs.KindMessage
	EventOverflow     = obs.KindOverflow
	EventHit          = obs.KindHit
)

// ParseEventKind resolves an event-kind name ("classify", "migration", ...).
func ParseEventKind(name string) (EventKind, error) { return obs.ParseKind(name) }

// EventKinds lists every event kind.
func EventKinds() []EventKind { return obs.Kinds() }

// NewJSONLProbe returns a probe streaming one JSON object per event to w.
func NewJSONLProbe(w io.Writer) *JSONLProbe { return obs.NewJSONLProbe(w) }

// NewTraceEventProbe returns a probe exporting Chrome trace_event JSON
// (openable in Perfetto) to w. Call Close after the run.
func NewTraceEventProbe(w io.Writer) *TraceEventProbe { return obs.NewTraceEventProbe(w) }

// MergeMetrics merges per-cell MetricsProbes, in order, into one aggregate;
// merge sweep cells in paper order for deterministic totals.
func MergeMetrics(probes ...*MetricsProbe) *MetricsProbe { return obs.MergeMetrics(probes...) }

// Timing model (§4.2).
type (
	// TimingParams are the DASH-like latency constants.
	TimingParams = timing.Params
	// TimingConfig describes one timed run.
	TimingConfig = timing.Config
	// TimingResult reports one timed run.
	TimingResult = timing.Result
)

// DefaultTimingParams returns the §4.2 latency constants.
func DefaultTimingParams() TimingParams { return timing.DefaultParams() }

// RunTimed executes a trace under the timing model.
func RunTimed(accs []Access, cfg TimingConfig) (TimingResult, error) { return timing.Run(accs, cfg) }

// Streaming trace sources: pull-based access streams for constant-memory
// pipelines. A TraceSource can be rewound (Reset) for the two-pass
// placement-then-simulation methodology and re-opened by every cell of a
// sweep, so a million-access trace is simulated without ever being held in
// memory. The slice-based entry points above remain thin wrappers over
// these.
type (
	// TraceSource is a re-openable access stream: Next until io.EOF,
	// Reset to rewind, Close when done.
	TraceSource = trace.Source
	// TraceReader is the read side of a source (Next only).
	TraceReader = trace.Reader
	// SliceTraceSource adapts an in-memory trace to TraceSource.
	SliceTraceSource = trace.SliceSource
	// FileTraceSource streams a binary trace file (either format).
	FileTraceSource = trace.FileSource
	// GeneratorTraceSource lazily generates a workload profile's trace,
	// bit-identical to GenerateWorkload with the same parameters.
	GeneratorTraceSource = workload.Source
	// TraceWriter encodes accesses to the streaming .mtr binary format.
	TraceWriter = trace.Writer
	// TraceHeader is the geometry header of a streaming trace file.
	TraceHeader = trace.Header
)

// NewSliceTraceSource wraps an in-memory trace as a TraceSource.
func NewSliceTraceSource(accs []Access) *SliceTraceSource { return trace.NewSliceSource(accs) }

// NewGeneratorSource returns a source that generates the named profile's
// trace lazily (length 0 = the profile default).
func NewGeneratorSource(name string, nodes int, seed int64, length int) (*GeneratorTraceSource, error) {
	p, err := workload.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return workload.NewSource(p, nodes, seed, length)
}

// OpenTraceFile opens a binary trace file (the streaming .mtr format or
// the legacy fixed-record one) as a TraceSource. The caller must Close it.
func OpenTraceFile(path string) (*FileTraceSource, error) { return trace.OpenFile(path) }

// NewFileTraceSource decodes a binary trace from any seekable reader,
// e.g. a bytes.Reader holding an .mtr image.
func NewFileTraceSource(r io.ReadSeeker) (*FileTraceSource, error) { return trace.NewFileSource(r) }

// PrefetchTraceSource wraps another source with a decode goroutine running
// one batch window ahead, so file IO and varint decode overlap the
// consumer's work. It owns the inner source: Close closes it, Reset
// rewinds it.
type PrefetchTraceSource = trace.PrefetchSource

// NewPrefetchTraceSource returns src wrapped with a prefetching decode
// stage.
func NewPrefetchTraceSource(src TraceSource) *PrefetchTraceSource {
	return trace.NewPrefetchSource(src)
}

// IndexedTraceSource decodes an indexed (v3) .mtr image with parallel
// segment-decode workers; it implements TraceSource, so it drops into any
// run path, and sharded runs feed decoded segments straight to the engine
// shards without a single-producer hand-off.
type IndexedTraceSource = trace.IndexedFileSource

// NewIndexedTraceSource opens an indexed (v3) .mtr image for parallel
// decode with the given worker count (0 = one per GOMAXPROCS). Input
// without a segment index (v1/v2) returns ErrTraceNoIndex; use
// OpenIndexedTraceFile for transparent fallback.
func NewIndexedTraceSource(r io.ReaderAt, size int64, decoders int) (*IndexedTraceSource, error) {
	return trace.NewIndexedSource(r, size, decoders)
}

// OpenIndexedTraceFile opens a trace file with the fastest decode path its
// format supports: indexed parallel decode for v3 files, a prefetching
// sequential decode for v1/v2. Corrupt v3 files fail loudly here rather
// than falling back.
func OpenIndexedTraceFile(path string, decoders int) (TraceSource, error) {
	return trace.OpenFileParallel(path, decoders)
}

// TraceSegmentCache is a process-wide, memory-bounded, ref-counted LRU of
// decoded .mtr segments keyed by file identity (dev/ino + size + mtime) and
// segment index. Concurrent readers wanting the same segment decode it once
// (single-flight) and share one immutable slab, so sweeps that replay one
// trace across many cells — and cohd serving many requests over a hot
// trace — skip redundant decode work. It only engages for indexed (v3)
// files opened by path; v1/v2 and in-memory sources bypass it. Replay is
// bit-identical with or without the cache. Set it on Options.Cache /
// RunConfig.Cache, or pass it to OpenIndexedTraceFileCache.
type TraceSegmentCache = trace.SegmentCache

// DefaultTraceCacheBytes is the default segment-cache capacity the CLI
// tools use for -trace-cache-bytes.
const DefaultTraceCacheBytes = trace.DefaultTraceCacheBytes

// NewTraceSegmentCache returns a segment cache bounded to capBytes of
// decoded accesses. capBytes <= 0 returns nil, which every consumer treats
// as "cache off"; a nil *TraceSegmentCache is safe everywhere one is
// accepted.
func NewTraceSegmentCache(capBytes int64) *TraceSegmentCache {
	return trace.NewSegmentCache(capBytes)
}

// OpenIndexedTraceFileCache is OpenIndexedTraceFile with a shared segment
// cache attached: v3 files consult cache before decoding a segment and
// publish what they decode. A nil cache behaves exactly like
// OpenIndexedTraceFile.
func OpenIndexedTraceFileCache(path string, decoders int, cache *TraceSegmentCache) (TraceSource, error) {
	return trace.OpenFileParallelCache(path, decoders, cache)
}

// NewTraceWriter returns a writer encoding accesses to w in the streaming
// .mtr format (version 3, segment-indexed, by default — see
// trace.NewWriterOptions for the version escape hatch). Close it to emit
// the integrity trailer and the segment index.
func NewTraceWriter(w io.Writer, hdr TraceHeader) *TraceWriter { return trace.NewWriter(w, hdr) }

// ReadTrace drains a source into memory.
func ReadTrace(src TraceReader) ([]Access, error) { return trace.ReadAll(src) }

// TraceBatchReader is the bulk read side of a source: NextBatch fills a
// caller-owned buffer and may return n > 0 together with a non-nil error
// (including io.EOF), io.Reader-style. All sources in this package
// implement it; external TraceReader implementations are adapted by
// FillTraceBatch.
type TraceBatchReader = trace.BatchReader

// DefaultTraceBatchSize is the chunk size the batched run loops use.
const DefaultTraceBatchSize = trace.DefaultBatchSize

// FillTraceBatch fills buf from r, using r's NextBatch when it has one and
// falling back to per-access Next calls otherwise.
func FillTraceBatch(r TraceReader, buf []Access) (int, error) { return trace.FillBatch(r, buf) }

// Unified run API: one declarative config and one entry point for all
// three simulators. This is the same path the CLI tools and the cohd
// service execute, so a config accepted here produces bit-identical
// results on every surface.
type (
	// RunConfig describes one simulation run: engine, workload or trace,
	// policy/protocol, cache geometry, placement, sharding. The zero
	// values mean the paper's defaults; Validate reports problems with
	// the package's typed sentinel errors.
	RunConfig = sim.RunConfig
	// RunResult is a Run's outcome; exactly one engine section is set,
	// and equal results marshal to equal JSON bytes.
	RunResult = sim.RunResult
	// DirectoryRunResult is the directory engine's RunResult section.
	DirectoryRunResult = sim.DirectoryResult
	// BusRunResult is the bus engine's RunResult section.
	BusRunResult = sim.BusResult
)

// Engine names for RunConfig.Engine.
const (
	EngineDirectory = sim.EngineDirectory
	EngineBus       = sim.EngineBus
	EngineTiming    = sim.EngineTiming
)

// Placement names for RunConfig.Placement (directory engine).
const (
	PlacementUsage      = sim.PlacementUsage
	PlacementFirstTouch = sim.PlacementFirstTouch
	PlacementRoundRobin = sim.PlacementRoundRobin
)

// Run executes one simulation described by cfg: the engine is selected by
// cfg.Engine, the trace by cfg.Workload or cfg.TraceFile, and validation
// (RunConfig.Validate) wraps the same typed sentinels every other surface
// returns. A nil ctx behaves like context.Background(); a cancelled one
// aborts the run within a few thousand accesses with ctx.Err().
func Run(ctx context.Context, cfg RunConfig) (*RunResult, error) { return sim.Run(ctx, cfg) }

// AnalyzeTraceSource computes summary statistics in one streaming pass.
func AnalyzeTraceSource(src TraceReader, geom Geometry) (TraceStats, error) {
	return trace.AnalyzeSource(src, geom)
}

// ClassifyBlocksSource is ClassifyBlocks over a streamed trace.
func ClassifyBlocksSource(src TraceReader, geom Geometry) (map[BlockID]BlockPattern, error) {
	return trace.ClassifyBlocksSource(src, geom)
}

// Runtime telemetry (internal/telemetry): live run counters, periodic
// sampling, the opt-in metrics/pprof HTTP server, and per-run manifests.
type (
	// RunStats is the shared atomic counter block a running simulation
	// publishes. Hand one to ExperimentOptions.Stats (or
	// DirectoryConfig.Stats / BusConfig.Stats) and read it concurrently
	// from a TelemetrySampler.
	RunStats = telemetry.RunStats
	// TelemetrySample is one observation of a running simulation:
	// counters, derived throughput, sweep ETA, and Go runtime state.
	TelemetrySample = telemetry.Sample
	// TelemetrySampler periodically snapshots a RunStats into samples.
	TelemetrySampler = telemetry.Sampler
	// TelemetryServer is the opt-in HTTP endpoint serving /metrics
	// (Prometheus text), /status (JSON), /healthz, /debug/vars, and
	// /debug/pprof for a running simulation.
	TelemetryServer = telemetry.Server
	// RunManifest records the exact conditions and outcome of one run,
	// written atomically alongside the results it produced.
	RunManifest = telemetry.Manifest
	// TraceCacheStats is a snapshot of a TraceSegmentCache's counters
	// (hits, misses, single-flight joins, evictions, resident/pinned
	// bytes). TelemetrySample and RunManifest carry one when a cache is
	// live; TraceSegmentCache.Stats returns one directly.
	TraceCacheStats = telemetry.CacheStats
)

// NewTelemetrySampler builds a sampler over stats; interval <= 0 uses the
// default cadence (2s).
func NewTelemetrySampler(stats *RunStats, interval time.Duration) *TelemetrySampler {
	return telemetry.NewSampler(stats, interval)
}

// StartTelemetryServer serves the telemetry endpoints on addr (":0" picks
// a free port; see TelemetryServer.Addr) until Close. manifest may be nil.
func StartTelemetryServer(addr, tool string, sampler *TelemetrySampler, manifest *RunManifest) (*TelemetryServer, error) {
	return telemetry.StartServer(addr, tool, sampler, manifest)
}

// NewRunManifest starts a manifest for the named tool, capturing the
// command line, build version, and machine facts.
func NewRunManifest(tool string) RunManifest { return telemetry.NewManifest(tool) }

// WriteRunManifest persists a manifest atomically under dir and returns
// the file path.
func WriteRunManifest(dir string, m RunManifest) (string, error) {
	return telemetry.WriteManifest(dir, m)
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a torn file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return telemetry.WriteFileAtomic(path, data, perm)
}

// Sentinel errors, matchable with errors.Is through every wrapping layer
// (lookups, config validation, the trace codec).
var (
	// ErrUnknownPolicy reports a protocol-policy name that does not resolve.
	ErrUnknownPolicy = core.ErrUnknownPolicy
	// ErrUnknownProfile reports a workload-profile name that does not
	// resolve.
	ErrUnknownProfile = workload.ErrUnknownProfile
	// ErrUnknownEventKind reports an event-kind name that does not resolve.
	ErrUnknownEventKind = obs.ErrUnknownEventKind
	// ErrUnknownProtocol reports a bus-protocol name that does not resolve.
	ErrUnknownProtocol = snoop.ErrUnknownProtocol
	// ErrUnknownEngine reports a RunConfig.Engine that names no simulator.
	ErrUnknownEngine = sim.ErrUnknownEngine
	// ErrUnknownPlacement reports a RunConfig.Placement that names no
	// placement policy.
	ErrUnknownPlacement = sim.ErrUnknownPlacement
	// ErrBadGeometry reports invalid block/page geometry.
	ErrBadGeometry = memory.ErrBadGeometry
	// ErrTraceTruncated reports a trace file cut short.
	ErrTraceTruncated = trace.ErrTruncated
	// ErrTraceCorrupt reports a structurally invalid trace file.
	ErrTraceCorrupt = trace.ErrCorrupt
	// ErrTraceBadMagic reports input that is not a trace file at all.
	ErrTraceBadMagic = trace.ErrBadMagic
	// ErrTraceNoIndex reports a trace without a segment index (v1/v2)
	// where an indexed (v3) one was required.
	ErrTraceNoIndex = trace.ErrNoIndex
)
