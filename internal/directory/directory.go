// Package directory implements the paper's directory-based protocols on a
// simulated CC-NUMA multiprocessor (§2.2, §3.3): a collection of nodes,
// each with a processor, a private 4-way set-associative cache, a memory
// module, and a memory controller holding the directory entries for the
// blocks homed at that node.
//
// Coherence is write-invalidate with delayed write-back: a modified block
// is written back when it is replaced or when another processor accesses
// it. The adaptive variants layer the migratory classification of
// internal/core on top, switching each block between replicate-on-read-miss
// and migrate-on-read-miss. Message accounting follows Table 1 exactly
// (internal/cost), including clean-replacement notifications to the home
// node.
package directory

import (
	"context"
	"fmt"

	"migratory/internal/cache"
	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/placement"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// Cache line permission states. A line's Dirty flag is orthogonal: a
// PermWrite line is clean until its holder actually writes.
const (
	// PermRead lines may be read but not written (the directory knows the
	// holder as a sharer).
	PermRead cache.State = iota
	// PermWrite lines may be read and written without contacting the
	// directory (the directory knows the holder as the owner). The
	// conventional protocol grants PermWrite only on writes; the adaptive
	// protocols also grant it when migrating a block on a read miss.
	PermWrite
)

// Config describes one simulated machine.
type Config struct {
	// Nodes is the processor/node count. The paper simulates 16.
	Nodes int
	// Geometry fixes block and page sizes.
	Geometry memory.Geometry
	// CacheBytes is the per-node cache capacity; 0 simulates an infinite
	// cache (no capacity or conflict misses, as in Table 3).
	CacheBytes int
	// Assoc is the cache associativity; 0 defaults to the paper's 4.
	Assoc int
	// Policy selects the protocol variant.
	Policy core.Policy
	// Placement maps pages to home nodes.
	Placement placement.Policy
	// CheckCoherence makes every access verify that the value observed is
	// the most recently written version of the block. Enabled by tests;
	// costs a few BlockMap lookups per access (cache.Versions).
	CheckCoherence bool
	// FreeDropNotifications treats the clean-replacement notifications to
	// the home node as free. §3.3 discusses exactly this accounting choice
	// ("one could argue that the notification message is a cheap,
	// low-priority maintenance message") and deliberately charges them;
	// this flag is the ablation.
	FreeDropNotifications bool
	// MigratoryOracle, when non-nil, replaces the on-line classifier with
	// off-line knowledge: read misses to blocks the oracle marks migratory
	// are issued as read-with-ownership operations (the §5 "load with
	// intent to modify" of the Berkeley Ownership protocol), charged as
	// write misses and granting a writable copy; all other blocks
	// replicate. This is the upper bound an off-line analysis could reach,
	// against which the on-line protocols are judged. Policy should be
	// Conventional when an oracle is supplied.
	MigratoryOracle func(memory.BlockID) bool
	// DirPointers bounds the number of sharer pointers a directory entry
	// can store, in the style of limited directories (Dir-i-B; the paper
	// cites Alewife's LimitLESS as a directory design that does not retain
	// state for uncached blocks). 0 means full-map (the paper's model).
	// When the copy set outgrows the pointers, invalidations must be
	// broadcast: every node except the initiator and home receives an
	// invalidation and acknowledges it, whether it holds a copy or not.
	// Migratory detection interacts with this favourably: migrating blocks
	// never grow their copy sets past one, so overflows become rarer.
	DirPointers int
	// Probe, when non-nil, receives a typed event for every coherence
	// action (internal/obs). Probes are invoked synchronously from the
	// simulation loop; nil (the default) costs nothing beyond a branch at
	// each emission site.
	Probe obs.Probe
	// Stats, when non-nil, receives batch-granularity run telemetry
	// (internal/telemetry): accesses processed, batches delivered,
	// classifier transitions, and migrations. The counters are pushed once
	// per DefaultBatchSize chunk, never per access, so nil costs a single
	// pointer test per batch.
	Stats *telemetry.RunStats

	// shards/shardIndex mark this System as one slice of a set-sharded
	// run: its caches hold only the sets routed to shardIndex. Set by
	// NewSharded; zero for a whole-machine System.
	shards     int
	shardIndex int
}

func (c Config) withDefaults() Config {
	if c.Assoc == 0 {
		c.Assoc = 4
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Nodes <= 0 || c.Nodes > memory.MaxNodes {
		return fmt.Errorf("directory: node count %d out of range [1,%d]", c.Nodes, memory.MaxNodes)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Placement == nil {
		return fmt.Errorf("directory: no placement policy")
	}
	cc := cache.Config{
		SizeBytes: c.CacheBytes, BlockSize: c.Geometry.BlockSize(), Assoc: c.Assoc,
		Shards: c.shards, ShardIndex: c.shardIndex,
	}
	if err := cc.Validate(); err != nil {
		return err
	}
	return nil
}

// entry is one block's directory entry: the copy set and owner tracking of
// the base protocol plus the adaptive classifier state. It is 16 bytes and
// holds no pointers (TestEntryLayout), so the entry table costs what the
// blocks it models need and the garbage collector never scans it.
type entry struct {
	copies memory.NodeSet
	cls    core.State
	// owner is the node holding a PermWrite line, or memory.NoNode.
	owner memory.NodeID
	flags uint8
}

// Entry flags.
const (
	// flagDirty mirrors the owner's Dirty flag. In hardware the directory
	// learns this when it next consults the owner; the simulator keeps it
	// synchronized eagerly, which is equivalent at every observation point.
	flagDirty uint8 = 1 << iota
	// flagEverMigratory records whether the block was classified migratory
	// at any point, for classifier-accuracy analysis.
	flagEverMigratory
	// flagOverflow is set when the copy set outgrew a limited directory's
	// pointers; invalidations must then be broadcast.
	flagOverflow
)

func (e *entry) is(f uint8) bool { return e.flags&f != 0 }

func (e *entry) set(f uint8, on bool) {
	if on {
		e.flags |= f
	} else {
		e.flags &^= f
	}
}

// Counters tallies protocol activity beyond raw message counts.
type Counters struct {
	Accesses     uint64
	ReadHits     uint64
	ReadMisses   uint64
	WriteHits    uint64 // write hits needing no communication (PermWrite)
	WriteUpgrade uint64 // write hits on PermRead lines (invalidation requests)
	WriteMisses  uint64

	Migrations      uint64 // read misses served by migrating the block
	Replications    uint64 // read misses served by replicating the block
	Overflows       uint64 // invalidations broadcast due to limited directory pointers
	Invalidations   uint64 // individual cache copies invalidated remotely
	WriteBacks      uint64 // dirty replacements
	CleanDrops      uint64 // clean replacements (notification to home)
	Classifications uint64 // transitions other->migratory
	Declassified    uint64 // transitions migratory->other
}

// Merge adds o's tallies into c. Counters are pure sums, so merging the
// per-shard counters of a set-sharded run in any order reproduces the
// sequential run's totals exactly.
func (c *Counters) Merge(o Counters) {
	c.Accesses += o.Accesses
	c.ReadHits += o.ReadHits
	c.ReadMisses += o.ReadMisses
	c.WriteHits += o.WriteHits
	c.WriteUpgrade += o.WriteUpgrade
	c.WriteMisses += o.WriteMisses
	c.Migrations += o.Migrations
	c.Replications += o.Replications
	c.Overflows += o.Overflows
	c.Invalidations += o.Invalidations
	c.WriteBacks += o.WriteBacks
	c.CleanDrops += o.CleanDrops
	c.Classifications += o.Classifications
	c.Declassified += o.Declassified
}

// OpInfo describes the coherence action taken by the most recent access,
// for consumers (like the execution-driven timing model of §4.2) that need
// more than aggregate counts.
type OpInfo struct {
	// Hit is true when the access completed in the local cache with no
	// communication (read hit or write to a PermWrite line).
	Hit bool
	// Write is true for write accesses.
	Write bool
	// Op classifies the transaction when Hit is false.
	Op cost.Op
	// HomeLocal reports whether the initiator is the home node.
	HomeLocal bool
	// OwnerConsult reports whether a remote owner had to be consulted
	// (Table 1's dirty rows).
	OwnerConsult bool
	// Distant is ||DistantCopies|| for the transaction.
	Distant int
	// Migrated is true when the block was handed over with write
	// permission on a read miss.
	Migrated bool
}

// System is one simulated machine running one protocol over one trace.
// Entries live in a chunked BlockMap arena rather than a Go map:
// block lookups are the per-access hot path of every sweep, and the trace
// generators produce dense block identifiers that index straight into a
// slice chunk (sparse external traces fall back to a map transparently).
type System struct {
	cfg     Config
	caches  []*cache.Cache
	entries memory.BlockMap[entry]
	// cls runs the policy over the entries' classifier states. clsBlock is
	// the block whose state it was last handed, which its Observe hook
	// reports (set only when probing).
	cls      core.Classifier
	clsBlock memory.BlockID
	msgs     cost.Counter
	n        Counters
	// versions models data values for coherence checking; nil unless
	// CheckCoherence is set.
	versions *cache.Versions
	lastOp   OpInfo
	// probe mirrors cfg.Probe; cur is the access being serviced and step
	// its index in the global trace interleaving, for stamping emitted
	// events (maintained only when probe is non-nil). In a set-sharded run
	// the step comes from the demux stage, so events carry the same step a
	// sequential run would stamp.
	probe obs.Probe
	cur   trace.Access
	step  uint64
	// stats mirrors cfg.Stats; statTrans/statMig remember the classifier
	// counter values already pushed to it, so noteBatch adds deltas without
	// the hot path ever touching an atomic.
	stats     *telemetry.RunStats
	statTrans uint64
	statMig   uint64
	// folded counts the folded repeats credit retired; statFolded is the
	// part already pushed to stats.
	folded, statFolded uint64
	// invalHist counts ownership-acquiring operations by how many remote
	// copies they invalidated (the cache-invalidation-pattern analysis of
	// Weber & Gupta, the paper's reference [23], which motivates the whole
	// migratory-detection idea: most invalidating writes hit exactly one
	// remote copy). Indexed by invalidation-set size, which is at most the
	// node count.
	invalHist []uint64
}

// InvalidationHistogram returns, for each invalidation-set size, how many
// ownership-acquiring operations (write misses and write-hit upgrades)
// invalidated that many remote copies. Size 0 covers upgrades and write
// misses that found no other cached copy.
func (s *System) InvalidationHistogram() map[int]uint64 {
	out := make(map[int]uint64, len(s.invalHist))
	for k, v := range s.invalHist {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

func (s *System) noteInvalidations(n int) {
	for len(s.invalHist) <= n {
		s.invalHist = append(s.invalHist, 0)
	}
	s.invalHist[n]++
}

// LastOp returns the OpInfo for the most recent Access call.
func (s *System) LastOp() OpInfo { return s.lastOp }

// New builds a System; the configuration must be valid.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &System{
		cfg:       cfg,
		caches:    make([]*cache.Cache, cfg.Nodes),
		invalHist: make([]uint64, cfg.Nodes+1),
		probe:     cfg.Probe,
		stats:     cfg.Stats,
		cls:       core.NewClassifier(cfg.Policy),
	}
	if s.probe != nil {
		s.cls.Observe = func(ch core.Change) { s.emitClassifier(s.clsBlock, ch) }
	}
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

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// entryFor returns b's entry, creating it on first touch. Every classifier
// call on an entry's state follows the entryFor of its block, so entryFor
// is also where a probed run names the block the Observe hook reports.
func (s *System) entryFor(b memory.BlockID) *entry {
	e, created := s.entries.GetOrCreate(b)
	if created {
		e.cls = s.cls.NewState()
		e.owner = memory.NoNode
	}
	if s.probe != nil {
		s.clsBlock = b
	}
	return e
}

// StateName renders a directory cache-line permission state for events and
// diagnostics ("R", "W"; "I" denotes an absent line).
func StateName(st cache.State) string {
	if st == PermWrite {
		return "W"
	}
	return "R"
}

// emit stamps and delivers one event; callers guard with s.probe != nil.
func (s *System) emit(e obs.Event) {
	e.Step = s.step
	e.Variant = s.cfg.Policy.Name
	e.Access = s.cur
	s.probe.OnEvent(e)
}

// emitClassifier translates a classifier state change into the matching
// event kind. The node is the requester of the in-flight access: every
// classifier transition happens while the directory services some access.
func (s *System) emitClassifier(b memory.BlockID, ch core.Change) {
	k := obs.KindEvidence
	if ch.Flipped {
		if ch.Migratory {
			k = obs.KindClassify
		} else {
			k = obs.KindDeclassify
		}
	}
	s.emit(obs.Event{Kind: k, Node: s.cur.Node, Block: b, Evidence: ch.Evidence, Migratory: ch.Migratory})
}

// emitMessage reports one charged transaction.
func (s *System) emitMessage(n memory.NodeID, b memory.BlockID, op cost.Op, m cost.Msgs) {
	s.emit(obs.Event{Kind: obs.KindMessage, Node: n, Block: b, Op: op.String(), Short: m.Short, Data: m.Data})
}

// emitInvalidation reports the invalidation of node m's copy of b, peeking
// the line's state before the caller invalidates it.
func (s *System) emitInvalidation(m memory.NodeID, b memory.BlockID) {
	old := "R"
	if line := s.caches[m].Peek(b); line != nil {
		old = StateName(line.State)
	}
	s.emit(obs.Event{Kind: obs.KindInvalidation, Node: m, Block: b, Old: old, New: "I"})
}

func (s *System) home(b memory.BlockID) memory.NodeID {
	return s.cfg.Placement.Home(s.cfg.Geometry.PageOfBlock(b))
}

// Run feeds every access of the trace through the system.
func (s *System) Run(accesses []trace.Access) error {
	return s.RunSource(nil, trace.NewSliceSource(accesses))
}

// RunSource feeds every access of a streamed trace through the system,
// holding O(1) trace memory. Accesses are pulled in DefaultBatchSize chunks
// by trace.EachBatch, so the per-access path pays no interface call and no
// cancellation check. A nil ctx is treated as context.Background(); on
// cancellation RunSource returns ctx.Err() within one chunk, so callers
// can test errors.Is(err, context.Canceled).
func (s *System) RunSource(ctx context.Context, src trace.Source) error {
	return trace.EachBatch(ctx, src, "directory", s.runBatch)
}

// runBatch feeds one chunk of accesses through the system; the context
// check lives with the caller, outside the per-access loop. The body
// specializes the dominant cases — with no probe attached and no coherence
// checking, a read hit, or a silent write hit on a line this node already
// owns dirty — so the steady-state kernel is a geometry shift, one cache
// lookup (usually the MRU memo), and two counter increments, with the
// loop-invariant nil checks hoisted out of the per-access path. The write
// hit skips dispatch's entryFor: the entry's flagDirty already mirrors the
// dirty owner line (DESIGN.md §7), so there is nothing to update.
//
// An access of a folded trace carries the silent repeats that followed it
// (trace.Folded); each branch retires them with credit once the access
// itself is done. The check sits inside each branch, so the paths an
// unfolded trace takes keep their shape.
func (s *System) runBatch(batch []trace.Access, base int) error {
	fast := s.probe == nil && s.versions == nil
	for i := range batch {
		a := batch[i]
		if int(a.Node) >= s.cfg.Nodes {
			return fmt.Errorf("access %d (%v): %w", base+i, a, s.Access(a))
		}
		s.n.Accesses++
		if s.probe != nil {
			s.cur = a
			s.step = s.n.Accesses - 1
		}
		b := s.cfg.Geometry.Block(a.Addr)
		line := s.caches[a.Node].Lookup(b)
		if fast && line != nil {
			if a.Kind == trace.Read {
				s.n.ReadHits++
				s.lastOp = OpInfo{Hit: true}
				if a.Fold != 0 {
					s.credit(a)
				}
				continue
			}
			if line.State == PermWrite && line.Dirty {
				s.n.WriteHits++
				s.lastOp = OpInfo{Hit: true, Write: true}
				if a.Fold != 0 {
					s.credit(a)
				}
				continue
			}
		}
		if err := s.dispatch(a, b, line); err != nil {
			return fmt.Errorf("access %d (%v): %w", base+i, a, err)
		}
		if a.Fold != 0 {
			if !fast {
				return fmt.Errorf("access %d (%v): directory: probed or checked run: %w", base+i, a, trace.ErrFolded)
			}
			s.credit(a)
		}
	}
	s.noteBatch(len(batch))
	return nil
}

// credit retires the silent repeats folded into a, which runBatch has just
// serviced. Each would have been a hit on the line a left newest in its
// node's cache — a read hit, or a write hit on a line the node already
// holds PermWrite and dirty — so each counts one access, one read or write
// hit and one cache hit, and changes nothing else (DESIGN.md §7).
func (s *System) credit(a trace.Access) {
	r, w := uint64(a.FoldedReads()), uint64(a.FoldedWrites())
	s.n.Accesses += r + w
	s.n.ReadHits += r
	s.n.WriteHits += w
	s.caches[a.Node].CreditHits(r + w)
	s.folded += r + w
}

// noteBatch pushes one processed batch of n delivered records into the
// attached telemetry counters: the accesses they cover (the records plus
// the repeats folded into them) directly, the classifier counters as
// deltas against what was last pushed (they are plain uint64s on the
// per-access path; the atomics are touched once per batch).
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
	if t := s.n.Classifications + s.n.Declassified; t != s.statTrans {
		st.Transitions.Add(t - s.statTrans)
		s.statTrans = t
	}
	if m := s.n.Migrations; m != s.statMig {
		st.Migrations.Add(m - s.statMig)
		s.statMig = m
	}
}

// Access applies a single shared-memory reference. It refuses an access
// of a folded trace (trace.ErrFolded): its folded repeats would be lost.
func (s *System) Access(a trace.Access) error {
	if int(a.Node) >= s.cfg.Nodes {
		return fmt.Errorf("directory: node %d out of range (%d nodes)", a.Node, s.cfg.Nodes)
	}
	if a.Fold != 0 {
		return fmt.Errorf("directory: %v: %w", a, trace.ErrFolded)
	}
	s.n.Accesses++
	if s.probe != nil {
		s.cur = a
		s.step = s.n.Accesses - 1
	}
	b := s.cfg.Geometry.Block(a.Addr)
	line := s.caches[a.Node].Lookup(b)
	return s.dispatch(a, b, line)
}

// dispatch routes an access whose cache lookup already happened; it is the
// shared tail of Access and runBatch's specialized loop.
func (s *System) dispatch(a trace.Access, b memory.BlockID, line *cache.Line) error {
	if a.Kind == trace.Read {
		if line != nil {
			s.n.ReadHits++
			s.lastOp = OpInfo{Hit: true}
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindHit, Node: a.Node, Block: b})
			}
			return s.checkRead(a.Node, b)
		}
		s.n.ReadMisses++
		s.readMiss(a.Node, b)
		return nil
	}

	// Write.
	if line != nil {
		switch line.State {
		case PermWrite:
			// Silent write: the holder already has write permission
			// (dirty block, or a clean block granted by migration).
			s.n.WriteHits++
			s.lastOp = OpInfo{Hit: true, Write: true}
			if s.probe != nil {
				s.emit(obs.Event{Kind: obs.KindHit, Node: a.Node, Block: b})
			}
			s.write(a.Node, b, line)
			s.entryFor(b).set(flagDirty, true)
			return nil
		case PermRead:
			s.n.WriteUpgrade++
			s.writeHitUpgrade(a.Node, b, line)
			return nil
		default:
			return fmt.Errorf("directory: line %v in impossible state %d", b, line.State)
		}
	}
	s.n.WriteMisses++
	s.writeMiss(a.Node, b)
	return nil
}

// readMiss services a read miss by node n.
func (s *System) readMiss(n memory.NodeID, b memory.BlockID) {
	if s.cfg.MigratoryOracle != nil && s.cfg.MigratoryOracle(b) {
		s.readWithOwnership(n, b)
		return
	}
	e := s.entryFor(b)
	home := s.home(b)
	homeLocal := home == n
	// Table 1's "dirty" rows apply whenever a cache holds the block with
	// write permission: the owner must be consulted even if it has not yet
	// modified the block (it may have, silently).
	ownerHeld := e.owner != memory.NoNode
	distant := e.copies.Without(n, home).Len()

	wasMigratory := e.cls.Migratory
	migrate := s.cls.ReadMiss(&e.cls, e.is(flagDirty))
	s.noteReclass(e, wasMigratory)

	m := s.msgs.Charge(cost.ReadMiss, homeLocal, ownerHeld, distant)
	s.lastOp = OpInfo{Op: cost.ReadMiss, HomeLocal: homeLocal, OwnerConsult: ownerHeld, Distant: distant, Migrated: migrate}
	if s.probe != nil {
		s.emitMessage(n, b, cost.ReadMiss, m)
	}

	if migrate {
		s.n.Migrations++
		// The old copy (if any) is invalidated in the same transaction
		// that delivers the block; any dirty data is merged into memory on
		// the way (already charged as the data messages above).
		if e.owner != memory.NoNode {
			old := e.owner
			if s.probe != nil {
				s.emitInvalidation(old, b)
			}
			s.caches[old].Invalidate(b)
			e.copies = e.copies.Remove(old)
			s.n.Invalidations++
		}
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindMigration, Node: n, Block: b, Migratory: true})
		}
		s.insert(n, b, PermWrite)
		s.versions.Fill(n, b)
		e.copies = e.copies.Add(n)
		e.owner = n
		e.set(flagDirty, false)
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: "I", New: "W", Migratory: e.cls.Migratory})
		}
		return
	}

	s.n.Replications++
	// Replication: a previous owner (dirty or clean-exclusive) is
	// downgraded to a reader and memory is made current.
	if e.owner != memory.NoNode {
		owner := s.caches[e.owner].Peek(b)
		owner.State = PermRead
		owner.Dirty = false
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindState, Node: e.owner, Block: b, Old: "W", New: "R"})
		}
		e.owner = memory.NoNode
		e.set(flagDirty, false)
	}
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindReplication, Node: n, Block: b, Migratory: e.cls.Migratory})
	}
	s.insert(n, b, PermRead)
	s.versions.Fill(n, b)
	e.copies = e.copies.Add(n)
	if s.cfg.DirPointers > 0 && e.copies.Len() > s.cfg.DirPointers {
		e.set(flagOverflow, true)
	}
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: "I", New: "R", Migratory: e.cls.Migratory})
	}
}

// readWithOwnership services a read miss to an oracle-designated migratory
// block: the block is fetched with exclusive write permission in a single
// transaction, invalidating every existing copy, and charged as a write
// miss (the closest Table 1 row for a read-exclusive request).
func (s *System) readWithOwnership(n memory.NodeID, b memory.BlockID) {
	e := s.entryFor(b)
	home := s.home(b)
	homeLocal := home == n
	ownerHeld := e.owner != memory.NoNode
	distant := e.copies.Without(n, home).Len()
	if e.is(flagOverflow) {
		distant = s.broadcastDistant(n, home)
		s.n.Overflows++
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindOverflow, Node: n, Block: b})
		}
	}

	// Keep the classifier's copy-count bookkeeping coherent even though
	// its decisions are overridden.
	s.cls.WriteMiss(&e.cls, n, !e.copies.Empty(), e.is(flagDirty))

	msg := s.msgs.Charge(cost.WriteMiss, homeLocal, ownerHeld, distant)
	s.lastOp = OpInfo{Op: cost.WriteMiss, HomeLocal: homeLocal, OwnerConsult: ownerHeld, Distant: distant, Migrated: true}
	if s.probe != nil {
		s.emitMessage(n, b, cost.WriteMiss, msg)
	}

	e.copies.ForEach(func(m memory.NodeID) {
		if s.probe != nil {
			s.emitInvalidation(m, b)
		}
		s.caches[m].Invalidate(b)
		s.n.Invalidations++
	})
	e.copies = 0
	e.set(flagOverflow, false)
	s.n.Migrations++
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindMigration, Node: n, Block: b, Migratory: true})
	}
	s.insert(n, b, PermWrite)
	s.versions.Fill(n, b)
	e.copies = e.copies.Add(n)
	e.owner = n
	e.set(flagDirty, false)
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: "I", New: "W", Migratory: e.cls.Migratory})
	}
}

// broadcastDistant returns the DistantCopies cardinality to charge when a
// limited directory entry has overflowed: every node except the initiator
// (and the home, whose invalidation is local) must be reached.
func (s *System) broadcastDistant(n, home memory.NodeID) int {
	d := s.cfg.Nodes - 1
	if home != n {
		d--
	}
	return d
}

// writeMiss services a write miss by node n.
func (s *System) writeMiss(n memory.NodeID, b memory.BlockID) {
	e := s.entryFor(b)
	home := s.home(b)
	homeLocal := home == n
	ownerHeld := e.owner != memory.NoNode
	distant := e.copies.Without(n, home).Len()
	if e.is(flagOverflow) {
		distant = s.broadcastDistant(n, home)
		s.n.Overflows++
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindOverflow, Node: n, Block: b})
		}
	}
	hadCopies := !e.copies.Empty()

	wasMigratory := e.cls.Migratory
	s.cls.WriteMiss(&e.cls, n, hadCopies, e.is(flagDirty))
	s.noteReclass(e, wasMigratory)

	msg := s.msgs.Charge(cost.WriteMiss, homeLocal, ownerHeld, distant)
	s.lastOp = OpInfo{Write: true, Op: cost.WriteMiss, HomeLocal: homeLocal, OwnerConsult: ownerHeld, Distant: distant}
	if s.probe != nil {
		s.emitMessage(n, b, cost.WriteMiss, msg)
	}
	s.noteInvalidations(e.copies.Len())

	e.copies.ForEach(func(m memory.NodeID) {
		if s.probe != nil {
			s.emitInvalidation(m, b)
		}
		s.caches[m].Invalidate(b)
		s.n.Invalidations++
	})
	e.copies = 0
	e.set(flagOverflow, false)
	line := s.insert(n, b, PermWrite)
	s.write(n, b, line)
	e.copies = e.copies.Add(n)
	e.owner = n
	e.set(flagDirty, true)
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: "I", New: "W", Migratory: e.cls.Migratory})
	}
}

// writeHitUpgrade services a write hit on a PermRead line: an invalidation
// (ownership) request to the directory.
func (s *System) writeHitUpgrade(n memory.NodeID, b memory.BlockID, line *cache.Line) {
	e := s.entryFor(b)
	home := s.home(b)
	homeLocal := home == n
	others := e.copies.Remove(n)
	distant := others.Without(home).Len()
	if e.is(flagOverflow) {
		distant = s.broadcastDistant(n, home)
		s.n.Overflows++
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindOverflow, Node: n, Block: b})
		}
	}

	wasMigratory := e.cls.Migratory
	s.cls.WriteHit(&e.cls, n, !others.Empty())
	s.noteReclass(e, wasMigratory)

	// The block is clean: PermRead copies are never dirty.
	msg := s.msgs.Charge(cost.WriteHit, homeLocal, false, distant)
	s.lastOp = OpInfo{Write: true, Op: cost.WriteHit, HomeLocal: homeLocal, Distant: distant}
	if s.probe != nil {
		s.emitMessage(n, b, cost.WriteHit, msg)
	}
	s.noteInvalidations(others.Len())

	others.ForEach(func(m memory.NodeID) {
		if s.probe != nil {
			s.emitInvalidation(m, b)
		}
		s.caches[m].Invalidate(b)
		s.n.Invalidations++
	})
	e.copies = memory.NodeSet(0).Add(n)
	e.set(flagOverflow, false)
	line.State = PermWrite
	s.write(n, b, line)
	e.owner = n
	e.set(flagDirty, true)
	if s.probe != nil {
		s.emit(obs.Event{Kind: obs.KindState, Node: n, Block: b, Old: "R", New: "W", Migratory: e.cls.Migratory})
	}
}

// insert places a block in node n's cache, handling any replacement.
func (s *System) insert(n memory.NodeID, b memory.BlockID, st cache.State) *cache.Line {
	// n is always the node whose access missed: the eviction-free bound relies on it (DESIGN.md §7).
	line, victim := s.caches[n].Insert(b, st)
	if victim != nil {
		s.evict(n, victim)
	}
	return line
}

// evict processes the replacement of a victim line from node n's cache:
// a write-back for dirty lines, a clean-drop notification otherwise
// (§3.3 charges both, even the arguably-asynchronous notifications).
func (s *System) evict(n memory.NodeID, victim *cache.Victim) {
	b := victim.Block
	e := s.entryFor(b)
	home := s.home(b)
	homeLocal := home == n

	if victim.Dirty {
		s.n.WriteBacks++
		m := s.msgs.Charge(cost.WriteBack, homeLocal, true, 0)
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindWriteBack, Node: n, Block: b, Old: StateName(victim.State), New: "I"})
			s.emitMessage(n, b, cost.WriteBack, m)
		}
	} else {
		s.n.CleanDrops++
		if s.probe != nil {
			s.emit(obs.Event{Kind: obs.KindCleanDrop, Node: n, Block: b, Old: StateName(victim.State), New: "I"})
		}
		if !s.cfg.FreeDropNotifications {
			m := s.msgs.Charge(cost.DropClean, homeLocal, false, 0)
			if s.probe != nil {
				s.emitMessage(n, b, cost.DropClean, m)
			}
		}
	}
	e.copies = e.copies.Remove(n)
	if e.owner == n {
		e.owner = memory.NoNode
		e.set(flagDirty, false)
	}
	if e.copies.Empty() {
		e.set(flagOverflow, false)
		wasMigratory := e.cls.Migratory
		s.cls.BecameUncached(&e.cls)
		s.noteReclass(e, wasMigratory)
	}
}

func (s *System) noteReclass(e *entry, was bool) {
	switch {
	case !was && e.cls.Migratory:
		s.n.Classifications++
		e.set(flagEverMigratory, true)
	case was && !e.cls.Migratory:
		s.n.Declassified++
	}
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
		return fmt.Errorf("directory: %w", err)
	}
	return nil
}

// Messages returns the accumulated Table 1 message counts.
func (s *System) Messages() cost.Msgs { return s.msgs.Total() }

// MessagesByOp returns the accumulated counts for one operation class.
func (s *System) MessagesByOp(op cost.Op) cost.Msgs { return s.msgs.ByOp(op) }

// Counters returns the protocol activity counters.
func (s *System) Counters() Counters { return s.n }

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

// MigratoryBlocks returns how many blocks are currently classified
// migratory.
func (s *System) MigratoryBlocks() int {
	n := 0
	s.entries.ForEach(func(_ memory.BlockID, e *entry) {
		if e.cls.Migratory {
			n++
		}
	})
	return n
}

// EverMigratory returns the set of blocks that were classified migratory
// at any point during the run. Note that the aggressive protocol's
// *initial* classification does not count — only classifications the
// detection rules produced (or retained through events). Blocks that start
// migratory and are immediately declassified never appear here.
func (s *System) EverMigratory() map[memory.BlockID]bool {
	out := make(map[memory.BlockID]bool)
	for _, b := range s.appendEverMigratory(nil) {
		out[b] = true
	}
	return out
}

// appendEverMigratory appends the blocks EverMigratory reports to dst and
// returns the extended slice, without building a map. Blocks come in
// increasing order, except that identifiers beyond the entry table's
// dense range follow in no particular order.
func (s *System) appendEverMigratory(dst []memory.BlockID) []memory.BlockID {
	s.entries.ForEach(func(b memory.BlockID, e *entry) {
		// Under an initially-migratory policy, a block that is still
		// classified at the end survived every declassification test:
		// count it as detected even though no classification event fired.
		if e.is(flagEverMigratory) || (s.cfg.Policy.InitialMigratory && e.cls.Migratory) {
			dst = append(dst, b)
		}
	})
	return dst
}

// CheckInvariants verifies the structural coherence invariants listed in
// DESIGN.md §7. Tests call it between accesses; it is O(total cached
// lines).
func (s *System) CheckInvariants() error {
	// Rebuild the ground truth from the caches.
	type truth struct {
		copies memory.NodeSet
		owner  memory.NodeID
		dirty  bool
	}
	actual := make(map[memory.BlockID]*truth)
	for n, c := range s.caches {
		for _, b := range c.Blocks() {
			line := c.Peek(b)
			tr, ok := actual[b]
			if !ok {
				tr = &truth{owner: memory.NoNode}
				actual[b] = tr
			}
			tr.copies = tr.copies.Add(memory.NodeID(n))
			if line.State == PermWrite {
				if tr.owner != memory.NoNode {
					return fmt.Errorf("block %d: two owners (%d and %d)", b, tr.owner, n)
				}
				tr.owner = memory.NodeID(n)
				tr.dirty = line.Dirty
			} else if line.Dirty {
				return fmt.Errorf("block %d: dirty PermRead line at node %d", b, n)
			}
		}
	}
	for b, tr := range actual {
		e := s.entries.Get(b)
		if e == nil {
			return fmt.Errorf("block %d cached but has no directory entry", b)
		}
		if e.copies != tr.copies {
			return fmt.Errorf("block %d: directory copies %v != actual %v", b, e.copies, tr.copies)
		}
		if e.owner != tr.owner {
			return fmt.Errorf("block %d: directory owner %d != actual %d", b, e.owner, tr.owner)
		}
		if e.is(flagDirty) != tr.dirty {
			return fmt.Errorf("block %d: directory dirty %v != actual %v", b, e.is(flagDirty), tr.dirty)
		}
		if tr.owner != memory.NoNode && tr.copies.Len() != 1 {
			return fmt.Errorf("block %d: owner %d coexists with copies %v", b, tr.owner, tr.copies)
		}
	}
	var entryErr error
	s.entries.ForEach(func(b memory.BlockID, e *entry) {
		if entryErr != nil {
			return
		}
		if _, ok := actual[b]; ok {
			return
		}
		if !e.copies.Empty() || e.owner != memory.NoNode || e.is(flagDirty) {
			entryErr = fmt.Errorf("block %d: uncached but directory says copies=%v owner=%d dirty=%v",
				b, e.copies, e.owner, e.is(flagDirty))
			return
		}
		if e.cls.Count != core.Uncached {
			entryErr = fmt.Errorf("block %d: uncached but classifier count %v", b, e.cls.Count)
		}
	})
	return entryErr
}
