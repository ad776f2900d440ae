// Set-sharded execution for the bus engine. The untimed snoop simulator
// counts transactions per block with per-set cache state and per-block
// holder/classifier tracking, so — exactly as in the directory engine —
// accesses to different cache-set indices never interact and a run can be
// partitioned by set index with bit-identical counts. (The *timed* bus is
// different: there the bus serializes every transaction globally, which is
// why the timing model rejects sharding.)
package snoop

import (
	"context"
	"fmt"

	"migratory/internal/obs"
	"migratory/internal/trace"
)

// Sharded runs one snooping protocol over one trace on several engine
// shards in parallel; shard i owns the blocks whose low log2(shards) bits
// equal i. Accessors merge the shards deterministically in shard order.
type Sharded struct {
	cfg    Config
	shards []*System
	probed bool
}

// NewSharded builds a set-sharded bus system: shards engine instances,
// each configured like cfg but owning only its slice of the sets.
// cfg.Probe must be nil; per-shard probes come from the probes factory
// (which may be nil, or return nil for any shard). The shard count must be
// a positive power of two and, for finite caches, no larger than the
// per-cache set count.
func NewSharded(cfg Config, shards int, probes func(int) obs.Probe) (*Sharded, error) {
	if cfg.Probe != nil {
		return nil, fmt.Errorf("snoop: sharded run: set per-shard probes via the factory, not Config.Probe")
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("snoop: shard count %d is not a positive power of two", shards)
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

// Shards returns the per-shard engine instances, in shard order.
func (sh *Sharded) Shards() []*System { return sh.shards }

// Run feeds a whole trace through the sharded system.
func (sh *Sharded) Run(accesses []trace.Access) error {
	return sh.RunSource(nil, trace.NewSliceSource(accesses))
}

// RunSource demuxes the trace by set index across the shards and runs
// them concurrently, with counts bit-identical to a sequential run. One
// producer (trace.DemuxParallel) feeds the shards; an indexed (MTR3)
// source decodes ahead of it on its own workers.
func (sh *Sharded) RunSource(ctx context.Context, src trace.Source) error {
	if len(sh.shards) == 1 {
		return sh.shards[0].RunSource(ctx, src)
	}
	geom := sh.cfg.Geometry
	mask := uint64(len(sh.shards) - 1)
	return trace.DemuxParallel(ctx, src, 0, len(sh.shards), sh.probed, sh.cfg.Stats,
		func(a trace.Access) int { return int(uint64(geom.Block(a.Addr)) & mask) },
		func(i int, b trace.ShardBatch) error { return sh.shards[i].runShardBatch(b) })
}

// runShardBatch runs one routed batch on this shard.
func (s *System) runShardBatch(b trace.ShardBatch) error {
	if b.Steps == nil {
		return s.runBatch(b.Accs, int(s.accesses))
	}
	for i := range b.Accs {
		if err := s.accessAt(b.Accs[i], b.Steps[i]); err != nil {
			return fmt.Errorf("access %d (%v): %w", b.Steps[i], b.Accs[i], err)
		}
	}
	s.noteBatch(len(b.Accs))
	return nil
}

// Counts returns the bus transaction counts summed over all shards.
func (sh *Sharded) Counts() Counts {
	var total Counts
	for _, s := range sh.shards {
		c := s.Counts()
		total.ReadMiss += c.ReadMiss
		total.WriteMiss += c.WriteMiss
		total.Invalidation += c.Invalidation
		total.WriteBack += c.WriteBack
		total.Update += c.Update
	}
	return total
}

// Accesses sums how many trace accesses the shards have simulated.
func (sh *Sharded) Accesses() uint64 {
	var n uint64
	for _, s := range sh.shards {
		n += s.Accesses()
	}
	return n
}

// Migrations sums the shards' MD-migration counts.
func (sh *Sharded) Migrations() uint64 {
	var n uint64
	for _, s := range sh.shards {
		n += s.Migrations()
	}
	return n
}

// Hits sums the shards' read-hit and write-hit counts.
func (sh *Sharded) Hits() (read, write uint64) {
	for _, s := range sh.shards {
		r, w := s.Hits()
		read += r
		write += w
	}
	return
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
