package migratory

// Benchmarks for the shared decoded-segment cache: the decode-once,
// run-many story. BenchmarkSegmentCacheSweep replays a multi-cell
// parameter sweep over one MTR3 trace with and without a warm cache (plus
// a decode-only pair that isolates the varint-decode CPU the cache
// removes), and BenchmarkCohdHotTrace drives an in-process cohd server
// with cold-digest requests over one hot trace. Both assert bit-identical
// results across modes and persist their rows to results/bench_sweep.json
// for `make bench-check`.

import (
	"encoding/json"
	"io"
	"log/slog"
	"runtime"
	"testing"
	"time"

	"migratory/internal/server"
	"migratory/internal/stats"
	"migratory/internal/trace"
)

// segcacheBenchCells is the sweep grid: three directory policies across
// seven per-node cache sizes, every cell replaying the same trace file —
// the Table 2 / cache-sweep shape where decode work repeats per cell.
func segcacheBenchCells(path string) []RunConfig {
	policies := []string{"conventional", "basic", "aggressive"}
	sizes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	cells := make([]RunConfig, 0, len(policies)*len(sizes))
	for _, p := range policies {
		for _, cb := range sizes {
			cells = append(cells, RunConfig{
				Engine:     EngineDirectory,
				TraceFile:  path,
				Nodes:      16,
				CacheBytes: cb,
				Policy:     p,
				Decoders:   2,
			})
		}
	}
	return cells
}

// drainCached opens path through the given cache (nil = uncached) and
// drains it, returning a count and order-sensitive checksum so modes can
// be asserted identical.
func drainCached(b *testing.B, path string, cache *TraceSegmentCache) (int, uint64) {
	b.Helper()
	src, err := OpenTraceFile(path, 2, cache)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	total := 0
	var sum uint64
	buf := make([]Access, 4096)
	for {
		n, err := trace.FillBatch(src, buf)
		for _, a := range buf[:n] {
			total++
			sum = sum*1099511628211 + uint64(a.Addr)<<9 + uint64(a.Node)<<1 + uint64(a.Kind)
		}
		if err == io.EOF {
			return total, sum
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentCacheSweep prices the segment cache on its home turf: a
// 21-cell directory-policy × cache-size sweep over one small-segment MTR3
// trace, uncached versus warm (cache pre-populated, as every cell after
// the first sees it). Per-cell results are asserted bit-identical, and the
// warm pass must take zero misses — the structural guarantee bench-check
// pins. A decode-only drain pair isolates the varint-decode CPU the cache
// actually removes, which on a single-core runner is the honest speedup
// figure (simulation time dominates the end-to-end cells).
func BenchmarkSegmentCacheSweep(b *testing.B) {
	path, _ := writeEquivTraceFile(b, 2<<10)
	cells := segcacheBenchCells(path)

	sweep := func(b *testing.B, cache *TraceSegmentCache) []string {
		b.Helper()
		out := make([]string, len(cells))
		for i, cfg := range cells {
			cfg.Cache = cache
			res, err := Run(nil, cfg)
			if err != nil {
				b.Fatalf("%s/%d: %v", cfg.Policy, cfg.CacheBytes, err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				b.Fatal(err)
			}
			out[i] = string(blob)
		}
		return out
	}

	cache := NewTraceSegmentCache(256 << 20)
	if n, _ := drainCached(b, path, cache); n == 0 {
		b.Fatal("empty benchmark trace")
	}
	warmStart := cache.Stats()
	if warmStart.Misses == 0 {
		b.Fatal("pre-warm drain never populated the cache")
	}

	b.Run("paired", func(b *testing.B) {
		elapsed := make([]time.Duration, 2)       // 0 = uncached, 1 = warm
		decodeElapsed := make([]time.Duration, 2) // decode-only drain pair
		var uncachedRes, warmRes []string
		var counts [2]int
		var sums [2]uint64
		for i := 0; i < b.N; i++ {
			start := time.Now()
			uncachedRes = sweep(b, nil)
			elapsed[0] += time.Since(start)

			start = time.Now()
			warmRes = sweep(b, cache)
			elapsed[1] += time.Since(start)

			for rep := 0; rep < 3; rep++ {
				start = time.Now()
				counts[0], sums[0] = drainCached(b, path, nil)
				decodeElapsed[0] += time.Since(start)

				start = time.Now()
				counts[1], sums[1] = drainCached(b, path, cache)
				decodeElapsed[1] += time.Since(start)
			}
		}
		for i := range cells {
			if warmRes[i] != uncachedRes[i] {
				b.Fatalf("cell %d (%s/%d): warm result diverged\n got %s\nwant %s",
					i, cells[i].Policy, cells[i].CacheBytes, warmRes[i], uncachedRes[i])
			}
		}
		if counts[1] != counts[0] || sums[1] != sums[0] {
			b.Fatalf("cached drain diverged: %d/%x vs %d/%x", counts[1], sums[1], counts[0], sums[0])
		}
		warmEnd := cache.Stats()
		extraMisses := warmEnd.Misses - warmStart.Misses
		if extraMisses != 0 {
			b.Fatalf("warm passes took %d misses (evicted? cap %d, resident %d)",
				extraMisses, warmEnd.CapBytes, warmEnd.ResidentBytes)
		}

		measured := map[string]float64{
			"gomaxprocs":         float64(runtime.GOMAXPROCS(0)),
			"cells":              float64(len(cells)),
			"warm_misses_per_op": float64(extraMisses) / float64(b.N),
		}
		names := []string{"uncached", "warm"}
		for mi, name := range names {
			measured[name+"_ns_per_op"] = float64(elapsed[mi].Nanoseconds()) / float64(b.N)
			measured["decode_"+name+"_ns_per_op"] = float64(decodeElapsed[mi].Nanoseconds()) / float64(b.N)
		}
		speedup := measured["uncached_ns_per_op"] / measured["warm_ns_per_op"]
		decodeSpeedup := measured["decode_uncached_ns_per_op"] / measured["decode_warm_ns_per_op"]
		measured["speedup"] = speedup
		measured["decode_speedup"] = decodeSpeedup
		b.ReportMetric(speedup, "speedup-warm")
		b.ReportMetric(decodeSpeedup, "speedup-decode")
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkSegmentCacheSweep", measured); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkCohdHotTrace prices the cache as cohd sees it: six requests
// with distinct configs (cold digests, so the result cache can never
// answer) replaying one trace file through an in-process server, without
// a segment cache versus with a pre-warmed one. Every request re-simulates
// either way; only the per-request decode is shared. Result bytes are
// asserted identical and the hot server must take zero segment misses.
func BenchmarkCohdHotTrace(b *testing.B) {
	path, _ := writeEquivTraceFile(b, 2<<10)
	reqs := []RunConfig{
		{Engine: EngineDirectory, TraceFile: path, Nodes: 16, Policy: "conventional", Decoders: 2},
		{Engine: EngineDirectory, TraceFile: path, Nodes: 16, Policy: "basic", Decoders: 2},
		{Engine: EngineDirectory, TraceFile: path, Nodes: 16, Policy: "aggressive", Decoders: 2},
		{Engine: EngineBus, TraceFile: path, Nodes: 16, Protocol: "mesi", Decoders: 2},
		{Engine: EngineBus, TraceFile: path, Nodes: 16, Protocol: "adaptive", Decoders: 2},
		{Engine: EngineBus, TraceFile: path, Nodes: 16, Protocol: "berkeley", Decoders: 2},
	}

	submitAll := func(b *testing.B, srv *server.Server) []string {
		b.Helper()
		out := make([]string, len(reqs))
		for i, cfg := range reqs {
			// noCache forces execution: the point is repeated simulation
			// over a hot trace, not result memoization.
			job, err := srv.Submit(cfg, 0, true)
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
			snap := srv.Snapshot(job)
			if snap.Status != server.StatusDone {
				b.Fatalf("request %d: status %s: %s", i, snap.Status, snap.Error)
			}
			out[i] = string(snap.Result)
		}
		return out
	}

	cache := NewTraceSegmentCache(256 << 20)
	if n, _ := drainCached(b, path, cache); n == 0 {
		b.Fatal("empty benchmark trace")
	}
	warmStart := cache.Stats()

	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	cold, err := server.New(server.Config{Workers: 1, Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer cold.Close()
	hot, err := server.New(server.Config{Workers: 1, Cache: cache, Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer hot.Close()

	b.Run("paired", func(b *testing.B) {
		elapsed := make([]time.Duration, 2) // 0 = nocache, 1 = hot
		var coldRes, hotRes []string
		for i := 0; i < b.N; i++ {
			start := time.Now()
			coldRes = submitAll(b, cold)
			elapsed[0] += time.Since(start)

			start = time.Now()
			hotRes = submitAll(b, hot)
			elapsed[1] += time.Since(start)
		}
		for i := range reqs {
			if hotRes[i] != coldRes[i] {
				b.Fatalf("request %d: hot-cache result diverged\n got %s\nwant %s", i, hotRes[i], coldRes[i])
			}
		}
		extraMisses := cache.Stats().Misses - warmStart.Misses
		if extraMisses != 0 {
			b.Fatalf("hot server took %d segment misses", extraMisses)
		}

		measured := map[string]float64{
			"gomaxprocs":        float64(runtime.GOMAXPROCS(0)),
			"requests":          float64(len(reqs)),
			"hot_misses_per_op": float64(extraMisses) / float64(b.N),
		}
		measured["nocache_ns_per_op"] = float64(elapsed[0].Nanoseconds()) / float64(b.N)
		measured["hot_ns_per_op"] = float64(elapsed[1].Nanoseconds()) / float64(b.N)
		speedup := measured["nocache_ns_per_op"] / measured["hot_ns_per_op"]
		measured["speedup"] = speedup
		b.ReportMetric(speedup, "speedup-hot")
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkCohdHotTrace", measured); err != nil {
			b.Fatal(err)
		}
	})
}
