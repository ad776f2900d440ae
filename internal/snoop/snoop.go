// Package snoop implements the paper's bus-based protocols (§2.1, Figures 1
// and 2): the conventional MESI baseline, the adaptive extension with the
// Shared-2, Migratory-Clean, and Migratory-Dirty states, the
// migrate-on-read-miss initial-policy variant, and — from the related-work
// discussion (§5) — a Sequent Symmetry (model B) style protocol that
// non-adaptively migrates every modified block on a read miss.
//
// All caches snoop a single logically atomic bus. The simulator counts bus
// transactions; §4.3's two cost models are provided on the resulting
// Counts.
package snoop

import (
	"context"
	"fmt"

	"migratory/internal/cache"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// Line states. Invalid is represented by absence from the cache.
const (
	// StateE: Exclusive — the only cached copy; memory is up to date.
	StateE cache.State = iota
	// StateS2: Shared-2 — one of at most two cached copies, and the older
	// one; memory is up to date.
	StateS2
	// StateS: Shared — one of possibly many cached copies.
	StateS
	// StateD: Dirty — the only cached copy; memory is stale. (The paper
	// renames MESI's "Modified" to free up M for "Migratory".)
	StateD
	// StateMC: Migratory-Clean — the only cached copy of a block classified
	// migratory, not yet modified at this node.
	StateMC
	// StateMD: Migratory-Dirty — the only cached copy of a migratory
	// block, modified at this node.
	StateMD
	// StateO: Owned non-exclusively (Berkeley protocol only) — this cache
	// holds the dirty master copy while other caches hold clean Shared
	// copies; memory is stale.
	StateO
)

// StateName renders a line state.
func StateName(s cache.State) string {
	switch s {
	case StateE:
		return "E"
	case StateS2:
		return "S2"
	case StateS:
		return "S"
	case StateD:
		return "D"
	case StateMC:
		return "MC"
	case StateMD:
		return "MD"
	case StateO:
		return "O"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Protocol selects the bus protocol variant.
type Protocol uint8

const (
	// MESI is the conventional write-invalidate baseline (Papamarcos &
	// Patel), with replicate-on-read-miss for every block.
	MESI Protocol = iota
	// Adaptive is the paper's protocol exactly as Figure 2 describes it:
	// replicate-on-read-miss initially, reclassification with no
	// hysteresis (Hysteresis 1; larger values add the counter field the
	// paper sketches).
	Adaptive
	// AdaptiveMigrateFirst is the §2.1 variation that uses
	// migrate-on-read-miss as the initial policy, making the Exclusive
	// state dead.
	AdaptiveMigrateFirst
	// Symmetry is the Sequent Symmetry model B policy (§5): every modified
	// block migrates on a read miss, unconditionally and forever.
	Symmetry
	// Berkeley is the Berkeley Ownership protocol (the paper's reference
	// [12]): a read miss to a dirty block is served cache-to-cache and the
	// supplier retains ownership (state O) without updating memory, saving
	// write-backs for read-after-write sharing — but a migration still
	// takes the same two transactions as MESI, which is why the paper's
	// sophisticated variant adds an explicit Read-With-Ownership
	// instruction (modeled here by the directory engine's MigratoryOracle).
	Berkeley
	// UpdateOnce is a competitive hybrid write-update/write-invalidate
	// protocol in the style the paper attributes to the DEC Alpha systems
	// (§5): a write hit to a shared block broadcasts an update; a copy that
	// receives two updates without an intervening local access invalidates
	// itself; a writer whose update finds no remaining sharers promotes to
	// Dirty. Migrating a block therefore takes the three inter-cache
	// operations §5 describes (read miss, first update, second update),
	// versus one for the adaptive protocol.
	UpdateOnce
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case MESI:
		return "mesi"
	case Adaptive:
		return "adaptive"
	case AdaptiveMigrateFirst:
		return "adaptive-migrate-first"
	case Symmetry:
		return "symmetry"
	case Berkeley:
		return "berkeley"
	case UpdateOnce:
		return "update-once"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Adaptive reports whether p uses the migratory states.
func (p Protocol) Adaptive() bool { return p == Adaptive || p == AdaptiveMigrateFirst }

// Counts tallies bus transactions by type.
type Counts struct {
	ReadMiss     uint64 // Brmr transactions
	WriteMiss    uint64 // Bwmr transactions
	Invalidation uint64 // Bir transactions
	WriteBack    uint64 // replacement write-backs of dirty lines
	Update       uint64 // update broadcasts (UpdateOnce protocol only)
}

// Total returns the §4.3 first cost model: every transaction costs one
// unit.
func (c Counts) Total() uint64 {
	return c.ReadMiss + c.WriteMiss + c.Invalidation + c.WriteBack + c.Update
}

// Model2 returns the §4.3 second cost model: operations that require
// replies (misses, and invalidations under the adaptive protocols, which
// must wait for the Migratory response) cost two units; write-backs,
// updates, and conventional invalidations cost one.
func (c Counts) Model2(adaptive bool) uint64 {
	cost := 2*(c.ReadMiss+c.WriteMiss) + c.WriteBack + c.Update
	if adaptive {
		cost += 2 * c.Invalidation
	} else {
		cost += c.Invalidation
	}
	return cost
}

// Config describes a bus-based machine.
type Config struct {
	// Nodes is the processor count.
	Nodes int
	// Geometry fixes the block size (pages are irrelevant on a bus but the
	// geometry type carries both).
	Geometry memory.Geometry
	// CacheBytes per node; 0 = infinite.
	CacheBytes int
	// Assoc defaults to 4.
	Assoc int
	// Protocol selects the variant.
	Protocol Protocol
	// Hysteresis is the number of successive migratory events needed to
	// classify a block, for the adaptive protocols; 0 defaults to 1 (the
	// published no-hysteresis protocol).
	Hysteresis int
	// CheckCoherence verifies reads observe the latest write.
	CheckCoherence bool
	// Probe, when non-nil, receives a typed event for every coherence
	// action (internal/obs). Bus transactions are reported as KindMessage
	// events with Short=1. nil (the default) costs nothing beyond a branch
	// at each emission site.
	Probe obs.Probe
	// Stats, when non-nil, receives batch-granularity run telemetry
	// (internal/telemetry): accesses processed, batches delivered, and
	// migrations. Pushed once per DefaultBatchSize chunk, never per access,
	// so nil costs a single pointer test per batch.
	Stats *telemetry.RunStats

	// shards/shardIndex mark this System as one slice of a set-sharded
	// run (see NewSharded); zero for a whole-machine System.
	shards     int
	shardIndex int
}

func (c Config) withDefaults() Config {
	if c.Assoc == 0 {
		c.Assoc = 4
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Nodes <= 0 || c.Nodes > memory.MaxNodes {
		return fmt.Errorf("snoop: node count %d out of range [1,%d]", c.Nodes, memory.MaxNodes)
	}
	if c.Protocol > UpdateOnce {
		return fmt.Errorf("snoop: unknown protocol %d", c.Protocol)
	}
	if c.Hysteresis < 1 || c.Hysteresis > 250 {
		return fmt.Errorf("snoop: hysteresis %d out of range", c.Hysteresis)
	}
	if !c.Protocol.Adaptive() && c.Hysteresis != 1 {
		return fmt.Errorf("snoop: hysteresis only applies to adaptive protocols")
	}
	cc := cache.Config{
		SizeBytes: c.CacheBytes, BlockSize: c.Geometry.BlockSize(), Assoc: c.Assoc,
		Shards: c.shards, ShardIndex: c.shardIndex,
	}
	return cc.Validate()
}

// System simulates one bus-based machine.
type System struct {
	cfg    Config
	caches []*cache.Cache
	counts Counts
	// holders tracks which caches hold each block, mirroring the caches
	// exactly. A real bus broadcasts and every cache snoops; the simulator
	// used to model that with an O(nodes) Peek scan per transaction, which
	// dominated the per-access cost. The holder set restricts each scan to
	// the caches that can actually respond, with identical outcomes (a
	// non-holder's snoop is a no-op).
	holders memory.BlockMap[memory.NodeSet]
	// versions models data values for coherence checking; nil unless
	// CheckCoherence is set.
	versions *cache.Versions
	// tbl holds the protocol's precomputed snoop-response tables (table.go).
	tbl *snoopTables

	// Extra visibility counters.
	readHits, writeHits uint64
	migrations          uint64 // read misses served by an MD migration

	// probe mirrors cfg.Probe; cur is the access being serviced and step
	// its index in the global trace interleaving (both maintained only when
	// probe is non-nil). Sequentially step is just accesses-1; in a
	// set-sharded run it comes from the demux stage, so events carry the
	// same step a sequential run would stamp.
	probe    obs.Probe
	accesses uint64
	cur      trace.Access
	step     uint64

	// stats mirrors cfg.Stats; statMig remembers the migration count
	// already pushed to it, so noteBatch adds a delta without the hot path
	// ever touching an atomic.
	stats   *telemetry.RunStats
	statMig uint64
	// folded counts the folded repeats credit retired; statFolded is the
	// part already pushed to stats.
	folded, statFolded uint64
}

// emit stamps and delivers one event; callers guard with s.probe != nil.
func (s *System) emit(e obs.Event) {
	e.Step = s.step
	e.Variant = s.cfg.Protocol.String()
	e.Access = s.cur
	s.probe.OnEvent(e)
}

// emitBus reports one bus transaction as a message event (Short=1: the bus
// has no short/data distinction; §4.3's cost models weight Counts instead).
func (s *System) emitBus(n memory.NodeID, b memory.BlockID, op string) {
	s.emit(obs.Event{Kind: obs.KindMessage, Node: n, Block: b, Op: op, Short: 1})
}

// emitEvidence reports a hysteresis-counter bump, as a classification flip
// when it crossed the threshold.
func (s *System) emitEvidence(n memory.NodeID, b memory.BlockID, evidence uint8, classified bool) {
	k := obs.KindEvidence
	if classified {
		k = obs.KindClassify
	}
	s.emit(obs.Event{Kind: k, Node: n, Block: b, Evidence: int(evidence), Migratory: classified})
}

// New builds a System.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &System{cfg: cfg, caches: make([]*cache.Cache, cfg.Nodes), probe: cfg.Probe, stats: cfg.Stats, tbl: buildSnoopTables(cfg.Protocol)}
	for i := range s.caches {
		s.caches[i] = cache.New(cache.Config{
			SizeBytes:  cfg.CacheBytes,
			BlockSize:  cfg.Geometry.BlockSize(),
			Assoc:      cfg.Assoc,
			Shards:     cfg.shards,
			ShardIndex: cfg.shardIndex,
		})
	}
	if cfg.CheckCoherence {
		s.versions = cache.NewVersions(cfg.Nodes)
	}
	return s, nil
}

// holderSet returns the set of caches currently holding block b.
func (s *System) holderSet(b memory.BlockID) memory.NodeSet {
	if p := s.holders.Get(b); p != nil {
		return *p
	}
	return 0
}

func (s *System) addHolder(b memory.BlockID, n memory.NodeID) {
	p, _ := s.holders.GetOrCreate(b)
	*p = p.Add(n)
}

func (s *System) dropHolder(b memory.BlockID, n memory.NodeID) {
	if p := s.holders.Get(b); p != nil {
		*p = p.Remove(n)
	}
}

// invalidate removes block b from node n's cache, keeping holder tracking
// in sync.
func (s *System) invalidate(n memory.NodeID, b memory.BlockID) {
	s.caches[n].Invalidate(b)
	s.dropHolder(b, n)
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Counts returns the accumulated bus transaction counts.
func (s *System) Counts() Counts { return s.counts }

// Accesses returns how many trace accesses the system has simulated.
func (s *System) Accesses() uint64 { return s.accesses }

// Migrations returns how many read misses were served by migrating an MD
// block.
func (s *System) Migrations() uint64 { return s.migrations }

// Hits returns read-hit and write-hit counts that needed no bus traffic.
func (s *System) Hits() (read, write uint64) { return s.readHits, s.writeHits }

// CacheStats aggregates hit/miss/eviction counts over all node caches.
func (s *System) CacheStats() (hits, misses, evictions uint64) {
	for _, c := range s.caches {
		h, m, e := c.Stats()
		hits += h
		misses += m
		evictions += e
	}
	return
}

// Run feeds a whole trace through the system.
func (s *System) Run(accesses []trace.Access) error {
	return s.RunSource(nil, trace.NewSliceSource(accesses))
}

// RunSource feeds a streamed trace through the system, holding O(1) trace
// memory. Accesses are pulled in DefaultBatchSize chunks by
// trace.EachBatch, so the per-access path pays no interface call and no
// cancellation check. A nil ctx is treated as context.Background(); on
// cancellation RunSource returns ctx.Err() within one chunk.
func (s *System) RunSource(ctx context.Context, src trace.Source) error {
	return trace.EachBatch(ctx, src, "snoop", s.runBatch)
}

// runBatch feeds one chunk of accesses through the system; the context
// check lives with the caller, outside the per-access loop. With no probe
// attached and no coherence checking it retires the bus-silent hits
// inline — a read hit, or a write hit on a D or MD line that is already
// dirty — so the steady-state kernel is one cache lookup (usually the MRU
// memo) and two counter increments. Every other access goes through
// dispatch, the same tail Access uses. An access of a folded trace
// carries the silent repeats that followed it (trace.Folded); each branch
// retires them with credit once the access itself is done.
func (s *System) runBatch(batch []trace.Access, base int) error {
	fast := s.probe == nil && s.versions == nil
	for i := range batch {
		a := batch[i]
		if int(a.Node) >= s.cfg.Nodes {
			return fmt.Errorf("access %d (%v): %w", base+i, a, s.Access(a))
		}
		s.accesses++
		if s.probe != nil {
			s.cur = a
			s.step = s.accesses - 1
		}
		b := s.cfg.Geometry.Block(a.Addr)
		line := s.caches[a.Node].Lookup(b)
		if fast && line != nil {
			if a.Kind == trace.Read {
				s.readHits++
				if s.cfg.Protocol == UpdateOnce {
					line.Aux = 0
				}
				if a.Fold != 0 {
					if err := s.credit(a, b); err != nil {
						return fmt.Errorf("access %d (%v): %w", base+i, a, err)
					}
				}
				continue
			}
			if line.Dirty && (line.State == StateD || line.State == StateMD) {
				s.writeHits++
				if a.Fold != 0 {
					if err := s.credit(a, b); err != nil {
						return fmt.Errorf("access %d (%v): %w", base+i, a, err)
					}
				}
				continue
			}
		}
		if err := s.dispatch(a, b, line); err != nil {
			return fmt.Errorf("access %d (%v): %w", base+i, a, err)
		}
		if a.Fold != 0 {
			if !fast {
				return fmt.Errorf("access %d (%v): snoop: probed or checked run: %w", base+i, a, trace.ErrFolded)
			}
			if err := s.credit(a, b); err != nil {
				return fmt.Errorf("access %d (%v): %w", base+i, a, err)
			}
		}
	}
	s.noteBatch(len(batch))
	return nil
}

// credit retires the silent repeats folded into a, which runBatch has just
// serviced; they all name a's block b, which a left newest in its node's
// cache, so each one's lookup is a memo hit. Folded writes follow the
// node's own write, so the line is dirty D or MD — the kernel's own
// silent-write predicate — and each is a silent write hit; credit checks
// it and refuses the trace (trace.ErrFolded) otherwise. That happens only
// under UpdateOnce, whose write can leave the line shared or clean E:
// there the next write's effect depends on when it runs relative to the
// other nodes' own evictions, so UpdateOnce cells replay the exact trace
// (DESIGN.md §7). The reads follow in bulk; under UpdateOnce they clear
// the line's update counter, as each read would have. Doing the writes
// first is exact because a read hit touches only this node's own line.
func (s *System) credit(a trace.Access, b memory.BlockID) error {
	line := s.caches[a.Node].Lookup(b)
	if line == nil {
		return fmt.Errorf("snoop: folded repeats of uncached block %d", b)
	}
	w, r := uint64(a.FoldedWrites()), uint64(a.FoldedReads())
	if w > 0 && !(line.Dirty && (line.State == StateD || line.State == StateMD)) {
		return fmt.Errorf("snoop: folded write to a %s line: %w", StateName(line.State), trace.ErrFolded)
	}
	s.accesses += w + r
	s.writeHits += w
	s.readHits += r
	s.folded += w + r
	s.caches[a.Node].CreditHits(w + r - 1)
	if r > 0 && s.cfg.Protocol == UpdateOnce {
		line.Aux = 0
	}
	return nil
}

// noteBatch pushes one processed batch of n delivered records into the
// attached telemetry counters: the accesses they cover (the records plus
// the repeats folded into them) directly, migrations as a delta against
// what was last pushed.
func (s *System) noteBatch(n int) {
	st := s.stats
	if st == nil {
		return
	}
	folded := s.folded - s.statFolded
	s.statFolded = s.folded
	st.Accesses.Add(uint64(n) + folded)
	if folded != 0 {
		st.AccessesFolded.Add(folded)
	}
	st.Batches.Add(1)
	if m := s.migrations; m != s.statMig {
		st.Migrations.Add(m - s.statMig)
		s.statMig = m
	}
}

// Access applies one processor reference. It refuses an access of a
// folded trace (trace.ErrFolded): its folded repeats would be lost.
func (s *System) Access(a trace.Access) error {
	return s.accessAt(a, s.accesses)
}

// accessAt applies one processor reference, stamping any emitted events
// with the given global step index. Access passes the local access count;
// the sharded driver passes the demuxed global trace index.
func (s *System) accessAt(a trace.Access, step uint64) error {
	if int(a.Node) >= s.cfg.Nodes {
		return fmt.Errorf("snoop: node %d out of range (%d nodes)", a.Node, s.cfg.Nodes)
	}
	if a.Fold != 0 {
		return fmt.Errorf("snoop: %v: %w", a, trace.ErrFolded)
	}
	s.accesses++
	if s.probe != nil {
		s.cur = a
		s.step = step
	}
	b := s.cfg.Geometry.Block(a.Addr)
	return s.dispatch(a, b, s.caches[a.Node].Lookup(b))
}

// dispatch applies an access whose cache lookup already happened; it is
// the shared tail of accessAt and runBatch's specialized loop.
func (s *System) dispatch(a trace.Access, b memory.BlockID, line *cache.Line) error {
	if a.Kind == trace.Read {
		if line != nil {
			s.readHits++
			if s.cfg.Protocol == UpdateOnce {
				// A local access renews this copy's interest: the
				// update-once self-invalidation counter resets.
				line.Aux = 0
			}
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindHit, Node: a.Node, Block: b})
			}
			return s.checkRead(a.Node, b)
		}
		s.readMiss(a.Node, b)
		return nil
	}

	if line != nil {
		switch line.State {
		case StateD, StateMD:
			s.writeHits++
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindHit, Node: a.Node, Block: b})
			}
			s.write(a.Node, b, line)
			return nil
		case StateE:
			// E -> D with no bus transaction (Figure 2).
			s.writeHits++
			line.State = StateD
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindHit, Node: a.Node, Block: b})
				s.emit(obs.Event{Kind: obs.KindState, Node: a.Node, Block: b, Old: "E", New: "D"})
			}
			s.write(a.Node, b, line)
			return nil
		case StateMC:
			// MC -> MD with no bus transaction.
			s.writeHits++
			line.State = StateMD
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindHit, Node: a.Node, Block: b})
				s.emit(obs.Event{Kind: obs.KindState, Node: a.Node, Block: b, Old: "MC", New: "MD", Migratory: true})
			}
			s.write(a.Node, b, line)
			return nil
		case StateS, StateS2, StateO:
			if s.cfg.Protocol == UpdateOnce {
				s.writeUpdate(a.Node, b, line)
				return nil
			}
			s.writeHitShared(a.Node, b, line)
			return nil
		default:
			return fmt.Errorf("snoop: impossible state %d", line.State)
		}
	}
	s.writeMiss(a.Node, b)
	return nil
}

// response is what the requester observes on the bus at the end of a
// transaction.
type response struct {
	shared   bool
	mig      bool
	evidence uint8 // propagated hysteresis counter (adaptive only)
}

// bumpEvidence advances the hysteresis counter, saturating at the
// classification threshold: the counter is a one-or-two-bit hardware field
// (§2.1), and values beyond the threshold carry no information.
func (s *System) bumpEvidence(e uint8) uint8 {
	if int(e) >= s.cfg.Hysteresis {
		return uint8(s.cfg.Hysteresis)
	}
	return e + 1
}

// readMiss runs a Brmr transaction.
func (s *System) readMiss(n memory.NodeID, b memory.BlockID) {
	s.counts.ReadMiss++
	if s.probe != nil {
		s.emitBus(n, b, "read miss")
	}
	var r response
	rm := &s.tbl.rm
	s.holderSet(b).Remove(n).ForEach(func(i memory.NodeID) {
		line := s.caches[i].Peek(b)
		old := line.State
		e := rm[line.State]
		if e.flags&actTakeEvidence != 0 {
			r.evidence = line.Aux
		}
		if e.flags&actInvalidate != 0 {
			// Migrate (MD, or D under Symmetry): invalidate here, hand the
			// block to the requester with Migratory asserted.
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindInvalidation, Node: i, Block: b, Old: StateName(old), New: "I"})
			}
			s.invalidate(i, b)
			r.mig = true
			return
		}
		if e.flags&actDeclassify != 0 && s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindDeclassify, Node: n, Block: b, Evidence: int(line.Aux)})
		}
		r.shared = true
		if e.flags&actCleanLine != 0 {
			line.Dirty = false
		}
		line.State = e.next
		if s.probe != nil && line.State != old {
			s.emit(obs.Event{Kind: obs.KindState, Node: i, Block: b, Old: StateName(old), New: StateName(line.State)})
		}
	})

	var st cache.State
	var aux uint8
	switch {
	case r.mig && s.cfg.Protocol == Symmetry:
		// The requester inherits the dirty block.
		st = StateD
		s.migrations++
	case r.mig:
		st = StateMC
		aux = r.evidence
		s.migrations++
	case r.shared:
		st = StateS
	case s.cfg.Protocol == Berkeley:
		// Berkeley has no Exclusive state: unshared fills are UnOwned
		// (plain Shared), so the first write always costs an invalidation
		// transaction.
		st = StateS
	case s.cfg.Protocol == AdaptiveMigrateFirst:
		// Initial policy is migrate-on-read-miss: the Exclusive state is
		// dead and first fetches install Migratory-Clean.
		st = StateMC
		aux = uint8(s.cfg.Hysteresis) // born classified
	default:
		st = StateE
	}
	if s.probe != nil {
		if r.mig {
			s.emit(obs.Event{Kind: obs.KindMigration, Node: n, Block: b, Migratory: true})
		} else {
			s.emit(obs.Event{Kind: obs.KindReplication, Node: n, Block: b})
		}
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: "I", New: StateName(st),
			Migratory: st == StateMC || st == StateMD})
	}
	line := s.insert(n, b, st)
	line.Aux = aux
	if st == StateD {
		line.Dirty = true // Symmetry ownership transfer keeps memory stale
	}
	s.versions.Fill(n, b)
}

// writeMiss runs a Bwmr transaction.
func (s *System) writeMiss(n memory.NodeID, b memory.BlockID) {
	s.counts.WriteMiss++
	if s.probe != nil {
		s.emitBus(n, b, "write miss")
	}
	var r response
	others := s.holderSet(b).Remove(n)
	single := others.Len()
	wm := &s.tbl.wmMulti
	if single == 1 {
		wm = &s.tbl.wmSingle
	}
	others.ForEach(func(i memory.NodeID) {
		line := s.caches[i].Peek(b)
		old := StateName(line.State)
		e := wm[line.State]
		if e.flags&actBumpEvidence != 0 {
			// A write miss to a block with a single cached copy in E or D
			// is migratory evidence (the aggressive switch of §2.1).
			r.evidence = s.bumpEvidence(line.Aux)
			if int(r.evidence) >= s.cfg.Hysteresis {
				r.mig = true
			}
			if s.probe != nil {
				s.emitEvidence(n, b, r.evidence, r.mig)
			}
		}
		if e.flags&actMig != 0 {
			// The previous holder modified an MD copy: still migratory.
			r.mig = true
			r.evidence = line.Aux
		}
		if e.flags&actDeclassify != 0 && s.probe != nil {
			// Not modified before leaving: declassify (no Migratory
			// assertion); the requester installs a plain Dirty copy.
			s.emit(obs.Event{Kind: obs.KindDeclassify, Node: n, Block: b})
		}
		s.invalidate(i, b)
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindInvalidation, Node: i, Block: b, Old: old, New: "I"})
		}
	})
	st := StateD
	// The hysteresis evidence rides along with the dirty line even when it
	// is still below the classification threshold.
	aux := r.evidence
	switch {
	case r.mig:
		st = StateMD
	case single == 0 && s.cfg.Protocol == AdaptiveMigrateFirst:
		st = StateMD
		aux = uint8(s.cfg.Hysteresis)
	}
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: "I", New: StateName(st), Migratory: st == StateMD})
	}
	line := s.insert(n, b, st)
	line.Aux = aux
	s.write(n, b, line)
}

// writeHitShared runs a Bir transaction for a write hit on an S or S2 line.
func (s *System) writeHitShared(n memory.NodeID, b memory.BlockID, line *cache.Line) {
	s.counts.Invalidation++
	if s.probe != nil {
		s.emitBus(n, b, "invalidation")
	}
	var r response
	inv := &s.tbl.inv
	s.holderSet(b).Remove(n).ForEach(func(i memory.NodeID) {
		other := s.caches[i].Peek(b)
		old := StateName(other.State)
		if inv[other.State].flags&actBumpEvidence != 0 {
			// The invalidator holds the newer copy of a two-copy block:
			// the defining migratory detection event.
			r.evidence = s.bumpEvidence(other.Aux)
			if int(r.evidence) >= s.cfg.Hysteresis {
				r.mig = true
			}
			if s.probe != nil {
				s.emitEvidence(n, b, r.evidence, r.mig)
			}
		}
		s.invalidate(i, b)
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindInvalidation, Node: i, Block: b, Old: old, New: "I"})
		}
	})
	oldSelf := StateName(line.State)
	if line.State == StateS2 || line.State == StateO {
		// The older copy writing is not the migratory pattern (S2+Cwh -> D
		// regardless of responses, Figure 2); a Berkeley owner likewise
		// just invalidates the other copies and continues as Dirty.
		line.State = StateD
		line.Aux = 0
	} else if r.mig {
		line.State = StateMD
		line.Aux = r.evidence
	} else {
		line.State = StateD
		line.Aux = r.evidence
	}
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: oldSelf, New: StateName(line.State),
			Migratory: line.State == StateMD})
	}
	s.write(n, b, line)
}

// writeUpdate runs an update broadcast for the UpdateOnce protocol: every
// other copy applies the new value (memory snoops it too); a copy hit by a
// second consecutive update without an intervening local access invalidates
// itself; and a writer that finds no surviving sharers keeps the block
// exclusively (clean — memory is current).
func (s *System) writeUpdate(n memory.NodeID, b memory.BlockID, line *cache.Line) {
	s.counts.Update++
	if s.probe != nil {
		s.emitBus(n, b, "update")
	}
	s.write(n, b, line)
	line.Dirty = false // the broadcast updated memory
	line.Aux = 0
	sharers := false
	s.holderSet(b).Remove(n).ForEach(func(i memory.NodeID) {
		other := s.caches[i].Peek(b)
		other.Aux++
		if other.Aux >= 2 {
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindInvalidation, Node: i, Block: b, Old: StateName(other.State), New: "I"})
			}
			s.invalidate(i, b)
			return
		}
		s.versions.Fill(i, b)
		sharers = true
	})
	old := line.State
	if sharers {
		line.State = StateS
	} else {
		line.State = StateE
	}
	if s.probe != nil && line.State != old {
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: StateName(old), New: StateName(line.State)})
	}
}

// insert places the block, writing back a dirty victim.
func (s *System) insert(n memory.NodeID, b memory.BlockID, st cache.State) *cache.Line {
	// n is always the node whose access missed: the eviction-free bound relies on it (DESIGN.md §7).
	line, victim := s.caches[n].Insert(b, st)
	s.addHolder(b, n)
	if victim != nil {
		s.dropHolder(victim.Block, n)
		if victim.Dirty {
			s.counts.WriteBack++
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindWriteBack, Node: n, Block: victim.Block, Old: StateName(victim.State), New: "I"})
				s.emitBus(n, victim.Block, "write back")
			}
		} else if s.probe != nil {
			// Clean drops are silent on a bus (no directory to notify), but
			// still observable.
			s.emit(obs.Event{Kind: obs.KindCleanDrop, Node: n, Block: victim.Block, Old: StateName(victim.State), New: "I"})
		}
	}
	return line
}

// write records a write by node n to its line of block b.
func (s *System) write(n memory.NodeID, b memory.BlockID, line *cache.Line) {
	line.Dirty = true
	s.versions.Write(n, b)
}

// checkRead verifies, when checking coherence, that node n's read hit on b
// observes the latest write.
func (s *System) checkRead(n memory.NodeID, b memory.BlockID) error {
	if err := s.versions.CheckRead(n, b); err != nil {
		return fmt.Errorf("snoop: %w", err)
	}
	return nil
}

// States returns the per-node line state for a block, with -1 for invalid;
// tests use it to assert Figure 2 transitions.
func (s *System) States(b memory.BlockID) []int {
	out := make([]int, s.cfg.Nodes)
	for i := range s.caches {
		if line := s.caches[i].Peek(b); line != nil {
			out[i] = int(line.State)
		} else {
			out[i] = -1
		}
	}
	return out
}

// CheckInvariants verifies the structural invariants of §2.1: at most one
// cache in an exclusive state (E, D, MC, MD), never alongside shared
// copies; at most one S2 copy, and only with at most one other copy.
func (s *System) CheckInvariants() error {
	type info struct {
		copies    int
		holders   memory.NodeSet
		exclusive int
		s2        int
		dirty     int
	}
	blocks := make(map[memory.BlockID]*info)
	for i := range s.caches {
		for _, b := range s.caches[i].Blocks() {
			line := s.caches[i].Peek(b)
			in, ok := blocks[b]
			if !ok {
				in = &info{}
				blocks[b] = in
			}
			in.copies++
			in.holders = in.holders.Add(memory.NodeID(i))
			switch line.State {
			case StateE, StateD, StateMC, StateMD:
				in.exclusive++
			case StateS2:
				in.s2++
			}
			if line.Dirty {
				in.dirty++
				if line.State != StateD && line.State != StateMD && line.State != StateO {
					return fmt.Errorf("block %d: dirty line in state %s at node %d", b, StateName(line.State), i)
				}
			}
		}
	}
	for b, in := range blocks {
		if got := s.holderSet(b); got != in.holders {
			return fmt.Errorf("block %d: holder set %v != cached copies %v", b, got, in.holders)
		}
		if in.exclusive > 1 {
			return fmt.Errorf("block %d: %d exclusive copies", b, in.exclusive)
		}
		if in.exclusive == 1 && in.copies > 1 {
			return fmt.Errorf("block %d: exclusive copy coexists with %d copies", b, in.copies)
		}
		if in.s2 > 1 {
			return fmt.Errorf("block %d: %d S2 copies", b, in.s2)
		}
		if in.s2 == 1 && in.copies > 2 {
			return fmt.Errorf("block %d: S2 with %d total copies", b, in.copies)
		}
		if in.dirty > 1 {
			return fmt.Errorf("block %d: %d dirty copies", b, in.dirty)
		}
	}
	// No stale holder bits for uncached blocks.
	var holderErr error
	s.holders.ForEach(func(b memory.BlockID, hs *memory.NodeSet) {
		if holderErr != nil || hs.Empty() {
			return
		}
		if _, ok := blocks[b]; !ok {
			holderErr = fmt.Errorf("block %d: uncached but holder set says %v", b, *hs)
		}
	})
	return holderErr
}
