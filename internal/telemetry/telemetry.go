// Package telemetry is the harness's runtime observability plane: a block
// of atomic counters the engines bump at batch boundaries (RunStats), a
// periodic sampler turning those counters into throughput/occupancy
// snapshots (Sampler), an opt-in HTTP server exposing the snapshots as
// Prometheus metrics, JSON status, expvar, and pprof (Server), and an
// atomically written per-run manifest tying every result artifact back to
// its exact run conditions (Manifest).
//
// The package sits at the bottom of the dependency graph — it imports only
// the standard library — so the hot packages (trace, directory, snoop) can
// carry an optional *RunStats without cycles. Everything is nil-tolerant:
// with no RunStats attached the engines pay one pointer test per batch
// (4096 accesses) and nothing else, which BenchmarkTelemetryOverhead in the
// repository root holds within noise of the uninstrumented baseline.
package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MaxQueueShards bounds the per-shard queue-depth gauge array. Shard counts
// are powers of two capped by GOMAXPROCS in practice; counts beyond the
// bound alias onto slots modulo MaxQueueShards, so the gauges stay correct
// in aggregate.
const MaxQueueShards = 64

// RunStats is the shared atomic counter block one run (or one whole sweep)
// publishes while executing. Engines and the demux stage add to it at
// batch granularity — roughly once per trace.DefaultBatchSize accesses —
// so the counters cost nothing measurable on the hot path; the Sampler
// (or any other reader) may read them concurrently at any time.
//
// A single RunStats may be shared by many concurrent simulation cells:
// every field is a pure sum (or an instantaneous gauge), so the aggregate
// view stays meaningful under sweep parallelism and set-sharding alike.
type RunStats struct {
	// Accesses counts the trace accesses covered by completed cells: those
	// the engines processed, plus those of every cell answered by another
	// run's result (AccessesReused), so the total does not depend on how
	// many cells a sweep could share.
	Accesses atomic.Uint64
	// AccessesFolded is the share of Accesses the engines' batch kernels
	// credited in bulk: the silent repeats a folded trace carries on its
	// kept accesses (trace.Folded), covered but never delivered as
	// records.
	AccessesFolded atomic.Uint64
	// Batches counts engine-delivered record batches; the average batch
	// fill is the delivered records per batch,
	// (Accesses-AccessesReused-AccessesFolded)/Batches.
	Batches atomic.Uint64
	// Transitions counts classifier verdict flips (classify + declassify)
	// observed by the directory engines.
	Transitions atomic.Uint64
	// Migrations counts read misses served by migrating the block (both
	// engines).
	Migrations atomic.Uint64
	// Events counts typed obs events forwarded by an attached StatsProbe.
	Events atomic.Uint64

	// CellsDone/CellsTotal track sweep progress: independent simulation
	// cells completed versus scheduled. CellsTotal is 0 for runs that are
	// not sweeps, in which case ETA reporting is suppressed.
	CellsDone  atomic.Uint64
	CellsTotal atomic.Uint64
	// CellsReused counts completed cells that did not simulate: a sweep
	// answered them with the result of an identical cell, run in the same
	// sweep or kept from an earlier one. AccessesReused is their share of
	// Accesses.
	CellsReused    atomic.Uint64
	AccessesReused atomic.Uint64

	// DemuxBatches counts routed shard batches handed to consumers;
	// DemuxStalls counts the hand-offs that blocked on a full shard queue
	// and DemuxStallNs the total producer time spent blocked — the
	// back-pressure signal of a set-sharded run.
	DemuxBatches atomic.Uint64
	DemuxStalls  atomic.Uint64
	DemuxStallNs atomic.Uint64
	// QueueDepth is the number of routed batches currently in flight
	// (sent but not yet consumed) per shard slot; shard i uses slot
	// i % MaxQueueShards. With several sharded cells live at once a slot
	// aggregates across them, which is exactly the total back-pressure on
	// that shard index.
	//
	// Producer contract (single OR multiple producers): a batch is counted
	// into the gauge strictly before it becomes visible to any consumer,
	// and decremented exactly once when consumed. Pre-hand-off increments
	// mean the gauge can momentarily overstate depth, but it can never dip
	// negative and never double-counts, no matter how producer goroutines
	// interleave — trace.DemuxParallel upholds this, and
	// TestQueueDepthMultiProducer pins it under -race.
	QueueDepth [MaxQueueShards]atomic.Int64

	// BytesRead counts compressed trace bytes decoded from .mtr sources,
	// when the source reports them.
	BytesRead atomic.Uint64
}

// QueueDepths returns the current per-slot queue-depth gauges up to the
// highest active slot (nil when every slot is idle).
func (rs *RunStats) QueueDepths() []int64 {
	hi := -1
	var depths [MaxQueueShards]int64
	for i := range rs.QueueDepth {
		if d := rs.QueueDepth[i].Load(); d != 0 {
			depths[i] = d
			hi = i
		}
	}
	if hi < 0 {
		return nil
	}
	out := make([]int64, hi+1)
	copy(out, depths[:hi+1])
	return out
}

// Sample is one observation of a running simulation: the RunStats counters
// at an instant, the rates derived from the previous observation, and the
// Go runtime's memory and scheduler state.
type Sample struct {
	Time    time.Time     `json:"time"`
	Elapsed time.Duration `json:"elapsed_ns"`

	Accesses       uint64 `json:"accesses"`
	AccessesFolded uint64 `json:"accesses_folded"`
	// Batches counts the record batches delivered to the engines.
	Batches     uint64 `json:"batches"`
	Transitions uint64 `json:"transitions"`
	Migrations  uint64 `json:"migrations"`
	Events      uint64 `json:"events"`
	CellsDone   uint64 `json:"cells_done"`
	CellsTotal  uint64 `json:"cells_total"`
	// CellsReused and AccessesReused mirror the RunStats counters.
	CellsReused    uint64 `json:"cells_reused"`
	AccessesReused uint64 `json:"accesses_reused"`

	// Rate is the instantaneous throughput (accesses/second since the
	// previous sample); CumulativeRate averages over the whole run.
	Rate           float64 `json:"accesses_per_sec"`
	CumulativeRate float64 `json:"accesses_per_sec_cumulative"`
	// AvgBatchFill is the delivered records
	// (Accesses-AccessesReused-AccessesFolded) per batch — how full the
	// delivered batches run (a low fill on an .mtr replay means the decode
	// stage, not the engine, is the bottleneck).
	AvgBatchFill float64 `json:"avg_batch_fill"`

	DemuxBatches uint64  `json:"demux_batches"`
	DemuxStalls  uint64  `json:"demux_stalls"`
	DemuxStallNs uint64  `json:"demux_stall_ns"`
	QueueDepths  []int64 `json:"queue_depths,omitempty"`

	// ETA estimates the remaining wall time from sweep-cell progress;
	// zero when CellsTotal is unknown.
	ETA time.Duration `json:"eta_ns"`

	// Cache is the decoded-segment cache observation (nil when the process
	// runs without a trace.SegmentCache; see RegisterCacheStats).
	Cache *CacheStats `json:"trace_cache,omitempty"`

	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	GCPauseTotalNs  uint64 `json:"gc_pause_total_ns"`
	Goroutines      int    `json:"goroutines"`
}

// Sampler periodically snapshots a RunStats into Samples. Readers pull the
// latest observation with Latest or force a fresh one with Snapshot; an
// optional OnSample hook (progress printing, debug logging) runs on the
// sampler goroutine after each tick.
type Sampler struct {
	stats    *RunStats
	interval time.Duration
	start    time.Time

	// OnSample, when non-nil, observes every periodic sample. Set before
	// Start.
	OnSample func(Sample)

	mu   sync.Mutex
	last Sample

	stop chan struct{}
	done chan struct{}
}

// DefaultInterval is the sampling cadence when none is configured.
const DefaultInterval = 2 * time.Second

// NewSampler builds a sampler over stats (which must be non-nil).
// interval <= 0 uses DefaultInterval.
func NewSampler(stats *RunStats, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{stats: stats, interval: interval, start: time.Now()}
}

// Stats returns the counter block the sampler observes.
func (s *Sampler) Stats() *RunStats { return s.stats }

// Start launches the sampling goroutine. Call Stop to halt it.
func (s *Sampler) Start() {
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				sm := s.Snapshot()
				if s.OnSample != nil {
					s.OnSample(sm)
				}
			}
		}
	}()
}

// Stop halts the sampling goroutine (idempotent) and returns a final
// fresh sample covering the whole run.
func (s *Sampler) Stop() Sample {
	if s.stop != nil {
		select {
		case <-s.stop:
		default:
			close(s.stop)
		}
		<-s.done
	}
	return s.Snapshot()
}

// Latest returns the most recent sample without touching the counters
// (zero before the first tick or Snapshot call).
func (s *Sampler) Latest() Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Snapshot reads the counters and runtime state now, derives rates against
// the previous observation, stores the result as the latest sample, and
// returns it. Safe for concurrent use.
func (s *Sampler) Snapshot() Sample {
	now := time.Now()
	st := s.stats
	// A reused cell is credited to Accesses before AccessesReused, and an
	// engine batch to Accesses before AccessesFolded, so loading those two
	// first keeps them within the Accesses read next.
	reused := st.AccessesReused.Load()
	folded := st.AccessesFolded.Load()
	sm := Sample{
		Time:           now,
		Elapsed:        now.Sub(s.start),
		Accesses:       st.Accesses.Load(),
		AccessesFolded: folded,
		Batches:        st.Batches.Load(),
		Transitions:    st.Transitions.Load(),
		Migrations:     st.Migrations.Load(),
		Events:         st.Events.Load(),
		CellsDone:      st.CellsDone.Load(),
		CellsTotal:     st.CellsTotal.Load(),
		CellsReused:    st.CellsReused.Load(),
		AccessesReused: reused,
		DemuxBatches:   st.DemuxBatches.Load(),
		DemuxStalls:    st.DemuxStalls.Load(),
		DemuxStallNs:   st.DemuxStallNs.Load(),
		QueueDepths:    st.QueueDepths(),
		Cache:          SnapshotCacheStats(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sm.HeapAllocBytes = ms.HeapAlloc
	sm.HeapSysBytes = ms.HeapSys
	sm.TotalAllocBytes = ms.TotalAlloc
	sm.NumGC = ms.NumGC
	sm.GCPauseTotalNs = ms.PauseTotalNs
	sm.Goroutines = runtime.NumGoroutine()

	if sm.Batches > 0 {
		sm.AvgBatchFill = float64(sm.Accesses-sm.AccessesReused-sm.AccessesFolded) / float64(sm.Batches)
	}
	if sec := sm.Elapsed.Seconds(); sec > 0 {
		sm.CumulativeRate = float64(sm.Accesses) / sec
	}

	s.mu.Lock()
	prev := s.last
	if dt := sm.Time.Sub(prev.Time).Seconds(); !prev.Time.IsZero() && dt > 0 && sm.Accesses >= prev.Accesses {
		sm.Rate = float64(sm.Accesses-prev.Accesses) / dt
	} else {
		sm.Rate = sm.CumulativeRate
	}
	if sm.CellsTotal > 0 && sm.CellsDone > 0 && sm.CellsDone < sm.CellsTotal {
		perCell := sm.Elapsed / time.Duration(sm.CellsDone)
		sm.ETA = perCell * time.Duration(sm.CellsTotal-sm.CellsDone)
	}
	s.last = sm
	s.mu.Unlock()
	return sm
}
