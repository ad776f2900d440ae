// Set-sharded execution: accesses to different cache-set indices never
// interact in the untimed directory engine — tag arrays are per-set,
// directory entries, classifier state, and coherence versions are
// per-block, and every counter is a pure sum — so one run can be split
// across cores by set index with bit-identical results. This is the
// software analogue of partitioned directory designs (each slice owns a
// disjoint fraction of the blocks and serves it independently).
package directory

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"migratory/internal/cost"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/trace"
)

// Sharded runs one directory protocol over one trace on several engine
// shards in parallel. Shard i owns the blocks whose low log2(shards) bits
// equal i — a block's set index is its low set-count bits, so this is a
// partition by set index — and holds private caches (each storing only its
// 1/shards of the sets), directory entries, classifiers, message counters,
// and probe. Accessors merge the shards deterministically in shard order.
//
// The trace's per-block access order is preserved (the demux stage keeps
// relative order within a shard), which is all the protocol state machines
// can observe; cross-shard interleaving is not replayed, which is why the
// timing model — where the bus serializes globally — cannot be sharded.
type Sharded struct {
	cfg    Config
	shards []*System
	probed bool
}

// NewSharded builds a set-sharded directory system: shards engine
// instances, each configured like cfg but owning only its slice of the
// sets. cfg.Probe must be nil; per-shard probes come from the probes
// factory (which may be nil, or return nil for any shard). The shard count
// must be a positive power of two and, for finite caches, no larger than
// the per-cache set count. cfg.Placement and cfg.MigratoryOracle are shared
// by all shards and must be safe for concurrent use (the built-in
// placements and oracles are: they only read static state after
// construction).
func NewSharded(cfg Config, shards int, probes func(int) obs.Probe) (*Sharded, error) {
	if cfg.Probe != nil {
		return nil, fmt.Errorf("directory: sharded run: set per-shard probes via the factory, not Config.Probe")
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("directory: shard count %d is not a positive power of two", shards)
	}
	sh := &Sharded{cfg: cfg, shards: make([]*System, shards)}
	for i := range sh.shards {
		c := cfg
		c.shards = shards
		c.shardIndex = i
		if probes != nil {
			c.Probe = probes(i)
		}
		if c.Probe != nil {
			sh.probed = true
		}
		sys, err := New(c)
		if err != nil {
			return nil, err
		}
		sh.shards[i] = sys
	}
	return sh, nil
}

// Config returns the configuration the shards were built from.
func (sh *Sharded) Config() Config { return sh.cfg }

// Shards returns the per-shard engine instances, in shard order. Exposed
// for per-shard probe reconciliation; mutate nothing while a run is active.
func (sh *Sharded) Shards() []*System { return sh.shards }

// routeMask returns the low-bits mask selecting a block's shard.
func (sh *Sharded) routeMask() uint64 { return uint64(len(sh.shards) - 1) }

// Run feeds every access of the trace through the sharded system.
func (sh *Sharded) Run(accesses []trace.Access) error {
	return sh.RunSource(nil, trace.NewSliceSource(accesses))
}

// RunSource demuxes the trace by set index across the shards and runs them
// concurrently. Counters, messages, histograms, and classifier verdicts
// end up bit-identical to a sequential run of the same configuration.
// Events are stamped with global access indices only when a probe is
// attached, so probe-less sharded runs move 1/3 less data per access.
// One producer (trace.DemuxParallel) feeds the shards; an indexed (MTR3)
// source decodes ahead of it on its own workers.
func (sh *Sharded) RunSource(ctx context.Context, src trace.Source) error {
	if len(sh.shards) == 1 {
		return sh.shards[0].RunSource(ctx, src)
	}
	geom := sh.cfg.Geometry
	mask := sh.routeMask()
	return trace.DemuxParallel(ctx, src, 0, len(sh.shards), sh.probed, sh.cfg.Stats,
		func(a trace.Access) int { return int(uint64(geom.Block(a.Addr)) & mask) },
		func(i int, b trace.ShardBatch) error { return sh.shards[i].runShardBatch(b) })
}

// runShardBatch runs one routed batch on this shard. When the batch
// carries its global access indices (a probe is attached), each event is
// stamped with its access's index, so probe-visible step arithmetic (e.g.
// classification-latency distances) matches the sequential run bit for
// bit.
func (s *System) runShardBatch(b trace.ShardBatch) error {
	if b.Steps == nil {
		return s.runBatch(b.Accs, int(s.n.Accesses))
	}
	for i := range b.Accs {
		if err := s.accessAt(b.Accs[i], b.Steps[i]); err != nil {
			return fmt.Errorf("access %d (%v): %w", b.Steps[i], b.Accs[i], err)
		}
	}
	s.noteBatch(len(b.Accs))
	return nil
}

// Messages returns the Table 1 message counts summed over all shards.
func (sh *Sharded) Messages() cost.Msgs {
	m := sh.mergedMsgs()
	return m.Total()
}

// MessagesByOp returns the summed counts for one operation class.
func (sh *Sharded) MessagesByOp(op cost.Op) cost.Msgs {
	m := sh.mergedMsgs()
	return m.ByOp(op)
}

func (sh *Sharded) mergedMsgs() cost.Counter {
	var total cost.Counter
	for _, s := range sh.shards {
		total.Merge(&s.msgs)
	}
	return total
}

// Counters returns the protocol activity counters summed over all shards.
func (sh *Sharded) Counters() Counters {
	var total Counters
	for _, s := range sh.shards {
		total.Merge(s.n)
	}
	return total
}

// CacheStats aggregates hit/miss/eviction counts over every node cache of
// every shard.
func (sh *Sharded) CacheStats() (hits, misses, evictions uint64) {
	for _, s := range sh.shards {
		h, m, e := s.CacheStats()
		hits += h
		misses += m
		evictions += e
	}
	return
}

// MigratoryBlocks returns how many blocks are currently classified
// migratory, over all shards.
func (sh *Sharded) MigratoryBlocks() int {
	n := 0
	for _, s := range sh.shards {
		n += s.MigratoryBlocks()
	}
	return n
}

// EverMigratory unions the shards' classifier verdicts. Each block lives
// in exactly one shard, so this is a disjoint union.
func (sh *Sharded) EverMigratory() map[memory.BlockID]bool {
	out := make(map[memory.BlockID]bool)
	for _, b := range sh.AppendEverMigratory(nil) {
		out[b] = true
	}
	return out
}

// AppendEverMigratory appends every shard's ever-migratory blocks to dst,
// shard by shard, and returns the extended slice. Each block appears once;
// callers that need one order sort the result.
func (sh *Sharded) AppendEverMigratory(dst []memory.BlockID) []memory.BlockID {
	for _, s := range sh.shards {
		dst = s.appendEverMigratory(dst)
	}
	return dst
}

// InvalidationHistogram merges the per-shard Weber–Gupta histograms.
func (sh *Sharded) InvalidationHistogram() map[int]uint64 {
	out := make(map[int]uint64)
	for _, s := range sh.shards {
		for sz, c := range s.InvalidationHistogram() {
			out[sz] += c
		}
	}
	return out
}

// CheckInvariants verifies every shard's structural invariants.
func (sh *Sharded) CheckInvariants() error {
	for i, s := range sh.shards {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// MaxShards returns the largest usable shard count for a finite per-node
// cache of cacheBytes with the given block size and associativity (the
// per-cache set count; shard counts beyond it would leave shards with no
// sets). Infinite caches (cacheBytes == 0) have no limit and MaxShards
// returns 0.
func MaxShards(cacheBytes, blockSize, assoc int) int {
	if cacheBytes <= 0 {
		return 0
	}
	if assoc <= 0 {
		assoc = 4
	}
	sets := cacheBytes / blockSize / assoc
	if sets < 1 {
		return 1
	}
	// Round down to a power of two (set counts are validated as powers of
	// two anyway; this keeps MaxShards total for odd inputs).
	return 1 << (bits.Len(uint(sets)) - 1)
}

// ResolveShards turns a requested shard count into the one a run uses: -1
// means one shard per GOMAXPROCS, counts round down to a power of two (a
// block's shard is its low block bits), and finite caches cap the count at
// MaxShards so every shard owns at least one set. 0 and 1 (and anything
// below -1) mean a sequential run; the result is always >= 1.
func ResolveShards(shards, cacheBytes, blockSize, assoc int) int {
	if shards == -1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards <= 1 {
		return 1
	}
	n := 1 << (bits.Len(uint(shards)) - 1)
	if max := MaxShards(cacheBytes, blockSize, assoc); max > 0 && n > max {
		n = max
	}
	return n
}
