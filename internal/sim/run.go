package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"slices"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/placement"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/timing"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// Engine names for RunConfig.Engine.
const (
	// EngineDirectory is the DASH-like directory protocol simulator (§3).
	EngineDirectory = "directory"
	// EngineBus is the snooping bus protocol simulator (§4.3).
	EngineBus = "bus"
	// EngineTiming is the execution-driven timing model (§4.2).
	EngineTiming = "timing"
)

// Placement policy names for RunConfig.Placement (directory engine only).
const (
	// PlacementUsage is the paper's "good static placement" (§3.3): a
	// profiling pass assigns each page to the node that uses it most.
	PlacementUsage = "usage"
	// PlacementFirstTouch homes each page at the first node to touch it.
	PlacementFirstTouch = "firsttouch"
	// PlacementRoundRobin stripes pages across nodes.
	PlacementRoundRobin = "roundrobin"
)

var (
	// ErrUnknownEngine is wrapped by RunConfig.Validate when Engine names
	// none of the three simulators.
	ErrUnknownEngine = errors.New("sim: unknown engine")
	// ErrUnknownPlacement is wrapped by RunConfig.Validate when Placement
	// names no placement policy.
	ErrUnknownPlacement = errors.New("sim: unknown placement")
	// ErrNoDigest is returned by RunConfig.Digest for configs carrying
	// in-process overrides (OpenSource, PlacementPolicy, a synthesized
	// policy): they have no stable identity, so callers skip result
	// caching for them rather than fail.
	ErrNoDigest = errors.New("sim: config with in-process overrides has no digest")
)

// RunConfig is the one declarative description of a single simulation run,
// shared by the CLI tools, the library facade, and the cohd service. The
// JSON-tagged fields form the wire format (and the content-hash cache key);
// the untagged fields are in-process extension points that HTTP requests
// cannot reach.
//
// Zero values mean "the paper's defaults": 16 nodes, seed 1993, 16-byte
// blocks, 4-way caches, usage-based placement for the directory engine.
type RunConfig struct {
	// Engine selects the simulator: EngineDirectory, EngineBus, or
	// EngineTiming.
	Engine string `json:"engine"`

	// Workload names a built-in application profile (workload.Profiles).
	// Exactly one of Workload and TraceFile must be set (unless OpenSource
	// supplies the trace).
	Workload string `json:"workload,omitempty"`
	// TraceFile is a v3 .mtr trace to replay, decoded through its segment
	// index. MTR1/MTR2 files are refused with an error naming the
	// converter (`tracegen -in old.mtr -o new.mtr`). Mutually exclusive
	// with Workload.
	TraceFile string `json:"trace_file,omitempty"`

	// Nodes is the processor count (0 = the paper's 16).
	Nodes int `json:"nodes,omitempty"`
	// Seed drives the workload generator (0 = 1993). Ignored for traces.
	Seed int64 `json:"seed,omitempty"`
	// Length overrides the profile's default trace length (0 = default).
	// Ignored for traces.
	Length int `json:"length,omitempty"`

	// Policy names the directory/timing coherence policy (core.Policies):
	// "conventional", "basic", …
	Policy string `json:"policy,omitempty"`
	// Protocol names the bus protocol (snoop.Protocols): "mesi",
	// "adaptive", … Bus engine only.
	Protocol string `json:"protocol,omitempty"`

	// CacheBytes is the per-node cache capacity (0 = infinite).
	CacheBytes int `json:"cache_bytes,omitempty"`
	// BlockSize is the coherence block size in bytes (0 = 16).
	BlockSize int `json:"block_size,omitempty"`
	// Assoc is the cache associativity (0 = 4). Directory and bus engines.
	Assoc int `json:"assoc,omitempty"`
	// Hysteresis is the bus adaptive protocols' switch resistance (0 = 1).
	Hysteresis int `json:"hysteresis,omitempty"`
	// DirPointers bounds directory sharer pointers (0 = full map).
	// Directory engine only.
	DirPointers int `json:"dir_pointers,omitempty"`
	// FreeDropNotifications models free clean-replacement hints.
	// Directory engine only.
	FreeDropNotifications bool `json:"free_drop_notifications,omitempty"`

	// Placement selects the page-placement policy for the directory engine
	// ("" = PlacementUsage). The bus is placement-free and the timing model
	// fixes round-robin, so both reject a non-empty value.
	Placement string `json:"placement,omitempty"`
	// Shards set-shards the run (0/1 = sequential, -1 = GOMAXPROCS floored
	// to a power of two). Results stay bit-identical. The timing engine
	// rejects sharding.
	Shards int `json:"shards,omitempty"`
	// Decoders bounds the parallel trace-decode workers used when the run
	// reads an indexed (MTR3) trace file: 0 = one per GOMAXPROCS, >= 1
	// explicit. Results are bit-identical at any setting, so Digest()
	// ignores the field — the same run caches identically regardless of
	// decode parallelism.
	Decoders int `json:"decoders,omitempty"`
	// TimingParams overrides the DASH-like latency parameters (nil =
	// timing.DefaultParams). Timing engine only.
	TimingParams *timing.Params `json:"timing_params,omitempty"`

	// Probes, when non-nil, builds one probe per engine shard to instrument
	// the run with (in-process callers only; not part of the wire format or
	// the cache key). Not supported by the timing engine.
	Probes func(shard int) obs.Probe `json:"-"`
	// Stats, when non-nil, receives live run telemetry at batch
	// granularity. Not part of the cache key.
	Stats *telemetry.RunStats `json:"-"`
	// OpenSource, when non-nil, supplies the trace instead of
	// Workload/TraceFile. The factory must yield a fresh source per call:
	// placement profiling and the simulation each open their own.
	OpenSource func() (trace.Source, error) `json:"-"`
	// Cache, when non-nil, is the shared decoded-segment cache consulted
	// when TraceFile names an indexed (MTR3) trace, or when OpenSource
	// yields a *trace.IndexedFileSource. Like Decoders it cannot
	// change the result — only how often segments are decoded — so it is
	// not part of the wire format or the cache key (Digest ignores it).
	Cache *trace.SegmentCache `json:"-"`
	// PlacementPolicy, when non-nil, bypasses Placement with a prepared
	// policy (for example an App's profiled placement).
	PlacementPolicy placement.Policy `json:"-"`

	// policy carries a fully-formed core.Policy past the name round-trip,
	// so sweeps over synthesized policy variants (hysteresis studies,
	// anonymous test policies) route through Run unchanged.
	policy *core.Policy
}

// withDefaults resolves the zero values to the paper's defaults. The
// mapping is pure, so Digest hashes the same bytes for a sparse config and
// its fully spelled-out equivalent.
func (c RunConfig) withDefaults() RunConfig {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Seed == 0 {
		c.Seed = 1993
	}
	if c.BlockSize == 0 {
		c.BlockSize = 16
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	switch c.Engine {
	case EngineDirectory:
		if c.Placement == "" && c.PlacementPolicy == nil {
			c.Placement = PlacementUsage
		}
		if c.Assoc == 0 {
			c.Assoc = 4
		}
	case EngineBus:
		if c.Hysteresis == 0 {
			c.Hysteresis = 1
		}
		if c.Assoc == 0 {
			c.Assoc = 4
		}
	}
	return c
}

// Validate checks the whole config the way Run will use it, wrapping the
// packages' typed sentinels (ErrUnknownEngine, core.ErrUnknownPolicy,
// workload.ErrUnknownProfile, snoop.ErrUnknownProtocol,
// ErrUnknownPlacement, memory.ErrBadGeometry, …) so the CLI and the cohd
// HTTP surface reject a bad config with identical messages.
func (c RunConfig) Validate() error {
	c = c.withDefaults()
	switch c.Engine {
	case EngineDirectory, EngineBus, EngineTiming:
	default:
		return fmt.Errorf("%w: %q (want %q, %q, or %q)",
			ErrUnknownEngine, c.Engine, EngineDirectory, EngineBus, EngineTiming)
	}

	sources := 0
	for _, set := range []bool{c.Workload != "", c.TraceFile != "", c.OpenSource != nil} {
		if set {
			sources++
		}
	}
	if sources == 0 {
		return errors.New("sim: run config needs a workload profile or a trace file")
	}
	if sources > 1 {
		return errors.New("sim: workload and trace file are mutually exclusive")
	}
	if c.Workload != "" {
		if _, err := workload.ProfileByName(c.Workload); err != nil {
			return err
		}
	}
	geom, err := memory.NewGeometry(c.BlockSize, PageSize)
	if err != nil {
		return err
	}
	if c.Shards < -1 {
		return fmt.Errorf("sim: bad shard count %d", c.Shards)
	}
	if c.Decoders < 0 {
		return fmt.Errorf("sim: bad decoder count %d (want 0 for auto or >= 1)", c.Decoders)
	}

	// Cross-engine field discipline: a setting the selected engine would
	// silently ignore is a config error, not a no-op — silent drift would
	// poison the result cache.
	if c.Protocol != "" && c.Engine != EngineBus {
		return fmt.Errorf("sim: the %s engine takes a policy, not a bus protocol", c.Engine)
	}
	if c.Policy != "" && c.Engine == EngineBus {
		return errors.New("sim: the bus engine takes a protocol, not a policy")
	}
	if c.Hysteresis != 0 && c.Engine != EngineBus {
		return errors.New("sim: hysteresis is a bus-engine setting (directory policies carry their own)")
	}
	if c.TimingParams != nil && c.Engine != EngineTiming {
		return errors.New("sim: timing_params applies only to the timing engine")
	}
	if c.Engine != EngineDirectory {
		if c.DirPointers != 0 {
			return errors.New("sim: dir_pointers applies only to the directory engine")
		}
		if c.FreeDropNotifications {
			return errors.New("sim: free_drop_notifications applies only to the directory engine")
		}
		if c.Placement != "" {
			return fmt.Errorf("sim: the %s engine does not take a placement policy", c.Engine)
		}
	}

	switch c.Engine {
	case EngineDirectory:
		pol, err := c.resolvePolicy()
		if err != nil {
			return err
		}
		if c.PlacementPolicy == nil {
			switch c.Placement {
			case PlacementUsage, PlacementFirstTouch, PlacementRoundRobin:
			default:
				return fmt.Errorf("%w: %q (want %q, %q, or %q)", ErrUnknownPlacement,
					c.Placement, PlacementUsage, PlacementFirstTouch, PlacementRoundRobin)
			}
		}
		// Placement is resolved at run time (it may need a profiling pass);
		// a round-robin stand-in keeps Config.Validate self-contained.
		return c.directoryConfig(geom, pol, placement.NewRoundRobin(c.Nodes)).Validate()
	case EngineBus:
		prot, err := snoop.ProtocolByName(c.Protocol)
		if err != nil {
			return err
		}
		return c.busConfig(geom, prot).Validate()
	default: // EngineTiming
		if c.Shards != 1 {
			return fmt.Errorf("sim: execution-driven timing cannot shard (Shards=%d): the bus serializes transactions globally", c.Shards)
		}
		if c.Probes != nil {
			return errors.New("sim: probes are not supported by the timing engine")
		}
		if c.Assoc != 0 && c.Assoc != 4 {
			return errors.New("sim: associativity is fixed at 4 in the timing model")
		}
		pol, err := c.resolvePolicy()
		if err != nil {
			return err
		}
		return c.timingConfig(geom, pol).Validate()
	}
}

func (c RunConfig) resolvePolicy() (core.Policy, error) {
	if c.policy != nil {
		return *c.policy, nil
	}
	if c.Policy == "" {
		return core.Policy{}, fmt.Errorf("sim: the %s engine needs a policy", c.Engine)
	}
	return core.PolicyByName(c.Policy)
}

func (c RunConfig) directoryConfig(geom memory.Geometry, pol core.Policy, pl placement.Policy) directory.Config {
	return directory.Config{
		Nodes:                 c.Nodes,
		Geometry:              geom,
		CacheBytes:            c.CacheBytes,
		Assoc:                 c.Assoc,
		Policy:                pol,
		Placement:             pl,
		FreeDropNotifications: c.FreeDropNotifications,
		DirPointers:           c.DirPointers,
		Stats:                 c.Stats,
	}
}

func (c RunConfig) busConfig(geom memory.Geometry, prot snoop.Protocol) snoop.Config {
	return snoop.Config{
		Nodes:      c.Nodes,
		Geometry:   geom,
		CacheBytes: c.CacheBytes,
		Assoc:      c.Assoc,
		Protocol:   prot,
		Hysteresis: c.Hysteresis,
		Stats:      c.Stats,
	}
}

func (c RunConfig) timingConfig(geom memory.Geometry, pol core.Policy) timing.Config {
	params := timing.DefaultParams()
	if c.TimingParams != nil {
		params = *c.TimingParams
	}
	return timing.Config{
		Nodes:      c.Nodes,
		Geometry:   geom,
		CacheBytes: c.CacheBytes,
		Policy:     pol,
		Params:     params,
		Stats:      c.Stats,
	}
}

// openSource opens the config's trace: the in-process factory (whose
// indexed file sources are pointed at Cache), the trace file (indexed
// parallel decode), or the named workload generator.
func (c RunConfig) openSource() (trace.Source, error) {
	switch {
	case c.OpenSource != nil:
		src, err := c.OpenSource()
		if ifs, ok := src.(*trace.IndexedFileSource); ok && err == nil {
			ifs.WithCache(c.Cache)
		}
		return src, err
	case c.TraceFile != "":
		src, err := trace.OpenFileParallelCache(c.TraceFile, c.resolveDecoders(), c.Cache)
		if err != nil {
			return nil, err
		}
		return src, nil
	default:
		prof, err := workload.ProfileByName(c.Workload)
		if err != nil {
			return nil, err
		}
		return workload.NewSource(prof, c.Nodes, c.Seed, c.Length)
	}
}

// placementFor resolves the directory engine's page placement, running the
// profiling pass over its own source when the policy calls for one (the
// paper's two-pass methodology). Placement is page-granular, so the pass
// uses the page geometry regardless of the run's block size.
func (c RunConfig) placementFor() (placement.Policy, error) {
	if c.PlacementPolicy != nil {
		return c.PlacementPolicy, nil
	}
	switch c.Placement {
	case PlacementRoundRobin:
		return placement.NewRoundRobin(c.Nodes), nil
	case PlacementUsage, PlacementFirstTouch:
		src, err := c.openSource()
		if err != nil {
			return nil, err
		}
		pgeom := memory.MustGeometry(16, PageSize) // block size irrelevant for pages
		var pl placement.Policy
		var perr error
		if c.Placement == PlacementUsage {
			pl, perr = placement.UsageBasedSource(src, pgeom, c.Nodes)
		} else {
			pl, perr = placement.FirstTouchSource(src, pgeom, c.Nodes)
		}
		cerr := src.Close()
		if perr != nil {
			return nil, fmt.Errorf("sim: placement profiling: %w", perr)
		}
		if cerr != nil {
			return nil, cerr
		}
		return pl, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlacement, c.Placement)
	}
}

// shards resolves the config's Shards to the engine shard count for this
// run (see directory.ResolveShards).
func (c RunConfig) shards() int {
	return directory.ResolveShards(c.Shards, c.CacheBytes, c.BlockSize, c.Assoc)
}

// resolveDecoders maps the config's Decoders to the decode worker count:
// 0 means one per GOMAXPROCS. Purely a throughput knob — results and
// Digest() are identical at any setting.
func (c RunConfig) resolveDecoders() int {
	if c.Decoders > 0 {
		return c.Decoders
	}
	return runtime.GOMAXPROCS(0)
}

// digestVersion prefixes the digest material; bump it whenever a change
// makes old cached results non-comparable (new semantics for an existing
// field, a changed default, a different result encoding, a different
// trace identity).
const digestVersion = "migratory-runconfig/v2\n"

// Digest returns the content hash that keys the result cache: a SHA-256
// over the versioned canonical JSON of the defaulted config, plus the
// trace file's content identity when one is named (see writeTraceIdentity),
// so a rewritten trace misses rather than serving stale results. Configs
// carrying in-process overrides return ErrNoDigest. A trace file that no
// run could read (missing, truncated, corrupt, or MTR1/MTR2) returns the
// error opening it would.
func (c RunConfig) Digest() (string, error) {
	if c.OpenSource != nil || c.PlacementPolicy != nil || c.policy != nil {
		return "", ErrNoDigest
	}
	// Decode parallelism cannot change the result, so it must not change
	// the cache key: strip it before hashing (omitempty then drops the
	// field, keeping digests comparable with pre-Decoders caches too).
	c.Decoders = 0
	blob, err := json.Marshal(c.withDefaults())
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, digestVersion)
	h.Write(blob)
	if c.TraceFile != "" {
		if err := writeTraceIdentity(h, c.TraceFile); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeTraceIdentity writes the content identity of the v3 trace at path
// to h (trace.Index.WriteIdentity), so a rewrite changes the digest even
// when it keeps the file's size and mtime. Reading the index makes every
// check the indexed reader makes at open, so a trace no run could read
// fails here with the same typed error.
func writeTraceIdentity(h io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	idx, err := trace.ReadIndex(f, fi.Size())
	if err != nil {
		return fmt.Errorf("sim: trace file %s: %w", path, err)
	}
	idx.WriteIdentity(h)
	return nil
}

// DirectoryResult is the directory engine's outcome.
type DirectoryResult struct {
	Counters directory.Counters `json:"counters"`
	Msgs     cost.Msgs          `json:"msgs"`
}

// BusResult is the bus engine's outcome.
type BusResult struct {
	Counts     snoop.Counts `json:"counts"`
	Migrations uint64       `json:"migrations"`
	ReadHits   uint64       `json:"read_hits"`
	WriteHits  uint64       `json:"write_hits"`
}

// RunResult is Run's outcome; exactly one of the engine sections is set.
// The JSON encoding is canonical: equal results marshal to equal bytes,
// which is what the cohd result cache and the bit-identical equivalence
// tests compare.
type RunResult struct {
	Engine    string           `json:"engine"`
	Accesses  uint64           `json:"accesses"`
	Directory *DirectoryResult `json:"directory,omitempty"`
	Bus       *BusResult       `json:"bus,omitempty"`
	Timing    *timing.Result   `json:"timing,omitempty"`

	// migratory and invalidations hold what a directory run leaves beyond
	// its counters, for in-process callers: the blocks the classifier ever
	// called migratory, and the invalidations-per-write histogram. A
	// serialized result drops both.
	migratory     *blockSet
	invalidations map[int]uint64
}

// EverMigratory returns the directory engine's per-block classifier
// verdicts (nil for other engines or deserialized results).
func (r *RunResult) EverMigratory() map[memory.BlockID]bool {
	if r.migratory == nil {
		return nil
	}
	out := make(map[memory.BlockID]bool)
	r.migratory.forEach(func(b memory.BlockID) { out[b] = true })
	return out
}

// blockSet is a set of blocks in the smaller of two forms: a bitmap over
// the blocks from the lowest to the highest, or their sorted list. The
// adaptive policies' verdicts over the generated traces are dense, so a
// bitmap is several times smaller than the list; a trace whose blocks lie
// far apart keeps the list.
type blockSet struct {
	base  memory.BlockID   // the block of bit 0 of words[0], a multiple of 64
	words []uint64         // the bitmap; nil when list holds the set
	list  []memory.BlockID // the sorted blocks
}

// newBlockSet returns the set of blocks, which it sorts in place. Blocks
// must be distinct.
func newBlockSet(blocks []memory.BlockID) *blockSet {
	slices.Sort(blocks)
	if len(blocks) == 0 {
		return &blockSet{}
	}
	base := blocks[0] &^ 63
	span := uint64(blocks[len(blocks)-1]-base)/64 + 1
	if span > uint64(len(blocks)) {
		// A copy at the exact length: blocks was grown by append.
		return &blockSet{list: slices.Clone(blocks)}
	}
	words := make([]uint64, span)
	for _, b := range blocks {
		off := b - base
		words[off/64] |= 1 << (off % 64)
	}
	return &blockSet{base: base, words: words}
}

// forEach calls fn for each block of the set in increasing order.
func (s *blockSet) forEach(fn func(memory.BlockID)) {
	if s.words == nil {
		for _, b := range s.list {
			fn(b)
		}
		return
	}
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			fn(s.base + memory.BlockID(wi*64+bits.TrailingZeros64(w)))
		}
	}
}

// InvalidationHistogram returns the directory engine's
// invalidations-per-write histogram (nil for other engines or deserialized
// results).
func (r *RunResult) InvalidationHistogram() map[int]uint64 {
	return r.invalidations
}

// Run executes one simulation described by cfg and returns its result.
// This is the single entry point behind the facade's Run, every CLI, and
// the cohd service: the engine is selected by cfg.Engine, the trace by
// cfg.Workload/cfg.TraceFile, and all validation goes through
// cfg.Validate, so every surface accepts and rejects configs identically.
// A nil ctx behaves like context.Background(); cancellation aborts the run
// within a few thousand accesses and returns ctx.Err().
func Run(ctx context.Context, cfg RunConfig) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := memory.MustGeometry(cfg.BlockSize, PageSize)
	switch cfg.Engine {
	case EngineDirectory:
		return cfg.runDirectory(ctx, geom)
	case EngineBus:
		return cfg.runBus(ctx, geom)
	default:
		return cfg.runTiming(ctx, geom)
	}
}

func (c RunConfig) runDirectory(ctx context.Context, geom memory.Geometry) (*RunResult, error) {
	pol, err := c.resolvePolicy()
	if err != nil {
		return nil, err
	}
	pl, err := c.placementFor()
	if err != nil {
		return nil, err
	}
	sys, err := directory.NewSharded(c.directoryConfig(geom, pol, pl), c.shards(), c.Probes)
	if err != nil {
		return nil, err
	}
	src, err := c.openSource()
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if err := sys.RunSource(ctx, src); err != nil {
		return nil, err
	}
	counters := sys.Counters()
	return &RunResult{
		Engine:        EngineDirectory,
		Accesses:      counters.Accesses,
		Directory:     &DirectoryResult{Counters: counters, Msgs: sys.Messages()},
		migratory:     newBlockSet(sys.AppendEverMigratory(nil)),
		invalidations: sys.InvalidationHistogram(),
	}, nil
}

func (c RunConfig) runBus(ctx context.Context, geom memory.Geometry) (*RunResult, error) {
	prot, err := snoop.ProtocolByName(c.Protocol)
	if err != nil {
		return nil, err
	}
	sys, err := snoop.NewSharded(c.busConfig(geom, prot), c.shards(), c.Probes)
	if err != nil {
		return nil, err
	}
	src, err := c.openSource()
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if err := sys.RunSource(ctx, src); err != nil {
		return nil, err
	}
	readHits, writeHits := sys.Hits()
	return &RunResult{
		Engine:   EngineBus,
		Accesses: sys.Accesses(),
		Bus: &BusResult{
			Counts:     sys.Counts(),
			Migrations: sys.Migrations(),
			ReadHits:   readHits,
			WriteHits:  writeHits,
		},
	}, nil
}

func (c RunConfig) runTiming(ctx context.Context, geom memory.Geometry) (*RunResult, error) {
	pol, err := c.resolvePolicy()
	if err != nil {
		return nil, err
	}
	src, err := c.openSource()
	if err != nil {
		return nil, err
	}
	defer src.Close()
	res, err := timing.RunSource(ctx, src, c.timingConfig(geom, pol))
	if err != nil {
		return nil, err
	}
	return &RunResult{Engine: EngineTiming, Accesses: res.Accesses, Timing: &res}, nil
}
