// Package timing reproduces the execution-time study of §4.2: a timing
// model of a DASH-like CC-NUMA machine in which sixteen processors execute
// their access streams, blocking on misses and ownership upgrades, with
// latencies assigned per coherence-transaction shape and per-processor
// clocks determining the parallel execution time.
//
// This stands in for the paper's Tango + dixie simulation (DESIGN.md §4).
// Like the paper's §4.2 runs it uses round-robin page placement — the paper
// attributes most of the message-count gap between its trace-driven and
// execution-driven results to exactly that placement difference — and
// reports the reduction in parallel execution time rather than in message
// counts.
package timing

import (
	"context"
	"fmt"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// Params are the latency constants, in processor cycles. The defaults are
// DASH-flavoured: tens of cycles per network hop, a directory/memory access
// at the home, and a cache-to-cache transfer penalty when a remote owner
// must be consulted.
type Params struct {
	// HopCycles is one network traversal (request or reply).
	HopCycles uint64
	// MemCycles is a memory/directory access at the home node.
	MemCycles uint64
	// CacheCycles is a remote cache lookup/forward.
	CacheCycles uint64
	// ThinkCycles is the computation time modeled between shared accesses
	// (the traces exclude private data and instructions, which this
	// summarizes).
	ThinkCycles uint64
	// OccupancyCycles is how long one transaction occupies the home node's
	// memory controller. Overlapping requests to the same home queue
	// behind each other; the waiting time is reported as contention
	// (§4.2 observes it to be almost negligible — and reduced further by
	// the adaptive protocol, which sends fewer requests). 0 disables
	// contention modeling.
	OccupancyCycles uint64
	// WriteBuffered models a write buffer with a weakly ordered memory
	// system: writes (hits, upgrades, and write misses) retire in one
	// cycle from the processor's perspective, though their transactions
	// still occupy the home controller. §4.2's savings come mostly from
	// write-hit latency, so this ablation shows how much of the adaptive
	// protocol's *time* benefit survives when writes never stall.
	WriteBuffered bool
}

// DefaultParams returns the DASH-like constants used by the §4.2
// reproduction.
func DefaultParams() Params {
	return Params{HopCycles: 35, MemCycles: 30, CacheCycles: 15, ThinkCycles: 8, OccupancyCycles: 4}
}

// Latency converts an operation description into processor stall cycles.
func (p Params) Latency(op directory.OpInfo) uint64 {
	if op.Hit {
		return 1
	}
	if p.WriteBuffered && op.Write {
		return 1
	}
	switch op.Op {
	case cost.ReadMiss, cost.WriteMiss:
		l := p.MemCycles
		if !op.HomeLocal {
			l += 2 * p.HopCycles // request to home, reply
		}
		if op.OwnerConsult {
			l += 2*p.HopCycles + p.CacheCycles // forward to owner, reply
		}
		if op.Op == cost.WriteMiss && op.Distant > 0 {
			// Invalidations proceed in parallel with the fetch; the
			// requester waits one extra round trip for the slowest ack.
			l += 2 * p.HopCycles
		}
		return l
	case cost.WriteHit:
		// Ownership upgrade.
		l := p.MemCycles / 2
		if !op.HomeLocal {
			l += 2 * p.HopCycles
		}
		if op.Distant > 0 {
			l += 2 * p.HopCycles // invalidation round trip
		}
		return l
	default:
		return p.MemCycles
	}
}

// Config describes one execution-driven run.
type Config struct {
	// Nodes is the processor count (paper: 16).
	Nodes int
	// Geometry fixes block and page sizes.
	Geometry memory.Geometry
	// CacheBytes per node (0 = infinite).
	CacheBytes int
	// Policy selects the protocol.
	Policy core.Policy
	// Params are the latency constants (zero value = DefaultParams).
	Params Params
	// Stats, when non-nil, counts the run's accesses at batch
	// granularity. The timing model pushes no classifier transitions or
	// migrations.
	Stats *telemetry.RunStats
}

// Validate checks the configuration. Run and RunSource call it; it is
// exported so configurations can be checked before committing to a long
// simulation.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > memory.MaxNodes {
		return fmt.Errorf("timing: node count %d out of range [1,%d]", c.Nodes, memory.MaxNodes)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("timing: negative cache size %d", c.CacheBytes)
	}
	return nil
}

// Result reports one run.
type Result struct {
	// Cycles is the parallel execution time: the completion time of the
	// slowest processor.
	Cycles uint64
	// PerNode is each processor's completion time.
	PerNode []uint64
	// StallCycles is the total time processors spent blocked on the
	// memory system.
	StallCycles uint64
	// ContentionCycles is the part of StallCycles spent queueing for busy
	// home-node memory controllers.
	ContentionCycles uint64
	// Accesses is the number of shared accesses executed.
	Accesses uint64
	// Msgs are the inter-node messages, for cross-checking against the
	// trace-driven results.
	Msgs cost.Msgs
}

// StallFraction is StallCycles over total busy time.
func (r Result) StallFraction() float64 {
	var total uint64
	for _, c := range r.PerNode {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(total)
}

// Run executes the trace under the timing model. Coherence actions are
// applied in trace order — the traces already encode the synchronization
// (lock-serialized critical sections) of the modeled programs, so replaying
// them out of order would fabricate data races. Each access's latency is
// charged to its processor's private clock, plus the think time; the
// parallel execution time is the slowest processor's clock. This is the
// standard trace-driven timing compromise: protocol behaviour is exact,
// while the feedback of latency onto interleaving (which the paper reports
// as negligible — contention added "almost negligible" latency in their
// runs) is not modeled.
func Run(accesses []trace.Access, cfg Config) (Result, error) {
	return RunSource(nil, trace.NewSliceSource(accesses), cfg)
}

// runState is the mutable state the per-batch loop threads through a run.
type runState struct {
	cfg Config
	sys *directory.System
	res Result
	// ctrlFree is the per-home memory-controller busy horizon, for
	// contention modeling.
	ctrlFree []uint64
}

// runBatch executes one chunk of accesses; the context-cancellation check
// lives with the caller, outside the per-access loop.
func (st *runState) runBatch(batch []trace.Access) error {
	cfg := &st.cfg
	res := &st.res
	for _, a := range batch {
		if int(a.Node) >= cfg.Nodes {
			return fmt.Errorf("timing: node %d out of range", a.Node)
		}
		if err := st.sys.Access(a); err != nil {
			return err
		}
		res.Accesses++
		op := st.sys.LastOp()
		lat := cfg.Params.Latency(op)
		if !op.Hit && cfg.Params.OccupancyCycles > 0 {
			home := int(uint64(cfg.Geometry.Page(a.Addr)) % uint64(cfg.Nodes))
			now := res.PerNode[a.Node]
			if st.ctrlFree[home] > now {
				// Processor clocks are only loosely synchronized (requests
				// are applied in trace order), so a large horizon gap means
				// the requests did not actually overlap; only charge the
				// genuine near-overlap queueing, bounded by a plausible
				// queue depth.
				wait := st.ctrlFree[home] - now
				if cap := 4 * cfg.Params.OccupancyCycles; wait > cap {
					wait = cap
				}
				lat += wait
				res.ContentionCycles += wait
				now += wait
			}
			st.ctrlFree[home] = now + cfg.Params.OccupancyCycles
		}
		if lat > 1 {
			res.StallCycles += lat
		}
		res.PerNode[a.Node] += lat + cfg.Params.ThinkCycles
	}
	return nil
}

// RunSource is Run over a streamed trace, holding O(1) trace memory.
// Accesses are pulled in DefaultBatchSize chunks by trace.EachBatch, so the
// per-access path pays no interface call and no cancellation check. A nil
// ctx is treated as context.Background(); on cancellation RunSource returns
// ctx.Err() within one chunk.
func RunSource(ctx context.Context, src trace.Source, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	sys, err := directory.New(directory.Config{
		Nodes:      cfg.Nodes,
		Geometry:   cfg.Geometry,
		CacheBytes: cfg.CacheBytes,
		Policy:     cfg.Policy,
		// §4.2: execution-driven simulations use the standard round-robin
		// memory allocation.
		Placement: placement.NewRoundRobin(cfg.Nodes),
	})
	if err != nil {
		return Result{}, err
	}

	st := &runState{
		cfg:      cfg,
		sys:      sys,
		res:      Result{PerNode: make([]uint64, cfg.Nodes)},
		ctrlFree: make([]uint64, cfg.Nodes),
	}
	err = trace.EachBatch(ctx, src, "timing", func(batch []trace.Access, _ int) error {
		if err := st.runBatch(batch); err != nil {
			return err
		}
		if cfg.Stats != nil {
			cfg.Stats.Accesses.Add(uint64(len(batch)))
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := st.res
	for _, c := range res.PerNode {
		if c > res.Cycles {
			res.Cycles = c
		}
	}
	res.Msgs = sys.Messages()
	return res, nil
}

// Reduction returns the percentage execution-time reduction of with
// relative to base.
func Reduction(base, with Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return 100 * (1 - float64(with.Cycles)/float64(base.Cycles))
}
